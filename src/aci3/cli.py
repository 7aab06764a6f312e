"""Command-line surface tying the modules into a reproducible harness.

Every subcommand prints a single deterministic JSON payload on stdout (the
full status envelope with ``--envelope``); errors go to stderr as JSON with
a machine-readable code, exit status 1.  ``schemacheck`` validates payloads
against the schema files shipped under ``aci3/schemas``.  The environment
variable ``ACI3_OUTPUT_DIR`` sets the directory for written files (CAS
scripts, CSV).

Each route is declared once, next to its handler: ``@_route("<group>
<action>", *flags)``, each flag made by ``_flag`` from ``add_argument``'s
arguments (``type=IntList`` for comma-separated integers).  Its payload must
match ``schemas/<group>-<action>.schema.json`` unless ``schema=`` names
another; a new group also needs its help line in ``_GROUPS``.

Each process runs one route, so the top level imports only what every
route needs; a handler imports the kernel modules it calls and calls them
through the module, where a tracer or a test stub can replace them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING

from . import schemacheck
from .errors import DomainError
from .hilbert import (
    BettiTable,
    HilbertFunction,
    as_delta,
    ci_hilbert,
    difference,
    hilbert_from_betti,
    min_generator_bound,
    recognize_ci,
    theta_of,
)

if TYPE_CHECKING:
    from . import monomials


@dataclass
class CommandResult:
    status: str
    payload: object = None
    provenance: tuple[str, ...] = field(default_factory=tuple)
    code: str | None = None
    message: str | None = None
    show_envelope: bool = False  # --envelope: print envelope() instead of the payload

    def envelope(self) -> dict:
        if self.status == "ok":
            return {"status": "ok", "payload": self.payload,
                    "provenance": list(self.provenance)}
        return {"status": "error", "code": self.code, "message": self.message}


@lru_cache(maxsize=None)
def _schema(name: str):
    """The compiled validator of a shipped schema, built once per process."""
    path = resources.files("aci3").joinpath(f"schemas/{name}.schema.json")
    return schemacheck.compile_schema(json.loads(path.read_text()))


def validate_payload(name: str, payload) -> None:
    """Raise ``jsonschema.ValidationError`` unless ``payload`` matches the schema."""
    _schema(name)(payload)


def _json_flag(text: str, what: str) -> dict:
    """The JSON value of ``text``.  Bad JSON, an integer over Python's digit
    limit (ValueError) and nesting too deep to decode (RecursionError) are
    input-errors."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DomainError("input-error", f"malformed JSON for {what}: {exc}") from exc


def _write_output(name: str, text: str) -> str:
    """Write ``text`` to ``name`` under ACI3_OUTPUT_DIR; a name that leaves
    that directory, or an OSError, is an input-error."""
    if os.path.isabs(name) or os.path.normpath(name).split(os.sep)[0] == os.pardir:
        raise DomainError("input-error", f"{name!r} is not a name under ACI3_OUTPUT_DIR")
    base = os.environ.get("ACI3_OUTPUT_DIR", ".")
    path = os.path.join(base, name)
    try:
        os.makedirs(base, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError("input-error", f"cannot write {path}: {exc}") from exc
    return path


def _hilbert_csv(h: HilbertFunction) -> str:
    """``degree,value`` rows with CRLF line ends, as the csv module writes them."""
    return "".join(f"{d},{v}\r\n" for d, v in [("degree", "value"), *enumerate(h.values)])


# --ideal-file: the characters read, one more than this is refused (code
# too-large) before any is parsed.  1000 small generators take about 40 KB.
MAX_IDEAL_FILE = 1 << 20


def _ideal_from_args(args) -> monomials.MonomialIdeal:
    from . import monomials
    if getattr(args, "ideal_file", None):
        try:
            with open(args.ideal_file) as fh:
                text = fh.read(MAX_IDEAL_FILE + 1)
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError("input-error", f"cannot read {args.ideal_file}: {exc}") from exc
        if len(text) > MAX_IDEAL_FILE:
            raise DomainError("too-large", f"{args.ideal_file} holds more than "
                                           f"{MAX_IDEAL_FILE} characters")
        data = _json_flag(text, args.ideal_file)
    elif getattr(args, "ideal", None):
        data = _json_flag(args.ideal, "--ideal")
    else:
        raise DomainError("input-error", "provide --ideal or --ideal-file")
    return monomials.MonomialIdeal.from_json(data)


# ---------- routes: each declared once, by @_route on its handler ----------

# Group -> its help line, in the order ``aci3 --help`` lists the groups.
_GROUPS = {
    "hf": "Hilbert-function arithmetic",
    "aci": "monomial almost complete intersections",
    "betti": "Koszul-homology Betti oracle",
    "liaison": "linkage arithmetic",
    "classify": "Betti-table classification for H_CI(a,a,a)",
    "gorenstein": "Gorenstein degree sequences",
    "pfaffian": "alternating matrices and pfaffians",
    "export": "external-CAS script export",
    "verify": "run the verification suite",
}


@dataclass(frozen=True)
class Route:
    """``aci3 <group> <action>``, or ``aci3 <group>`` when ``action`` is None."""

    group: str
    action: str | None
    flags: tuple[tuple[str, dict], ...]   # add_argument(name, **kwargs), in order
    handler: str                          # looked up in this module when the route runs
    help: str | None                      # its line in the group's --help, if any
    schema: str


ROUTES: list[Route] = []   # in declaration order, which is each group's --help order


def _route(name: str, *flags, help=None, schema=None):
    """Declare the handler below as route ``name`` (see the module docstring)."""
    group, _, action = name.partition(" ")
    def declare(handler):
        ROUTES.append(Route(group, action or None, flags, handler.__name__, help,
                            schema or name.replace(" ", "-")))
        return handler
    return declare


def _flag(name: str, **kwargs) -> tuple[str, dict]:
    return name, kwargs


_A, _H = _flag("--a", type=int, required=True), _flag("--h", type=int, required=True)


class IntList(str):
    """Flag type of comma-separated integers: the text, read by the handler
    with ``ints()`` so that a bad list is an input-error in the handler's order.
    Empty text is the empty list; an empty item, as in ``3,,3``, is refused."""

    def ints(self) -> tuple[int, ...]:
        if not self:
            return ()
        try:
            return tuple(map(int, self.split(",")))
        except ValueError as exc:
            raise DomainError("input-error",
                              f"expected comma-separated integers, got {self!r}") from exc


# ---------- handlers: each returns (payload, provenance) ----------

@_route("hf ci",
        _flag("--degrees", type=IntList, required=True,
              help="comma-separated CI degrees, e.g. 3,3,3"),
        _flag("--csv", help="also write degree,value rows to this CSV file"))
def _cmd_hf_ci(args):
    h = ci_hilbert(args.degrees.ints())
    if args.csv:
        _write_output(args.csv, _hilbert_csv(h))
    return h.to_json(), ("ci-hilbert-koszul-product",)


@_route("hf diff",
        _flag("--hf", type=IntList, required=True, help="comma-separated values, e.g. 1,3,3,1"),
        _flag("--order", type=int, default=1))
def _cmd_hf_diff(args):
    return list(difference(HilbertFunction(args.hf.ints()), args.order)), ("hilbert-difference",)


@_route("hf from-betti",
        _flag("--table", required=True,
              help='Betti table JSON, e.g. {"c":3,"levels":[[0],[2,2,2],[4,4,4],[6]]}'),
        _flag("--csv"))
def _cmd_hf_from_betti(args):
    table = BettiTable.from_json(_json_flag(args.table, "--table"))
    h = hilbert_from_betti(table)
    if args.csv:
        _write_output(args.csv, _hilbert_csv(h))
    return h.to_json(), ("betti-determines-hilbert",)


@_route("hf recognize", _flag("--hf", type=IntList, required=True))
def _cmd_hf_recognize(args):
    found = recognize_ci(HilbertFunction(args.hf.ints()))
    payload = None if found is None else list(found)
    return payload, ("ci-recognition",)


@_route("hf bound",
        _flag("--hf", type=IntList, required=True),
        _flag("--c", type=int, required=True), _flag("--j", type=int, required=True),
        help="lower bound for minimal generators in one degree")
def _cmd_hf_bound(args):
    bound = min_generator_bound(HilbertFunction(args.hf.ints()), args.c, args.j)
    return bound, ("generator-lower-bound",)


@_route("aci monomial",
        _flag("--degrees", type=IntList, required=True), _H,
        _flag("--verify", action="store_true",
              help="also check the Hilbert function against the CI one"))
def _cmd_aci_monomial(args):
    from . import monomials
    degs = args.degrees.ints()
    ideal = monomials.aci_construction(degs, args.h)
    h = monomials.hilbert_function(ideal)
    payload = {
        "ideal": ideal.to_json(),
        "pretty": ideal.pretty(),
        "hilbert": h.to_json(),
    }
    tags = ["aci-monomial-construction"]
    if args.verify:
        expected = ci_hilbert(degs)
        payload["ci"] = expected.to_json()
        payload["matches"] = h == expected
        tags.append("ci-hilbert-match")
    return payload, tuple(tags)


@_route("betti oracle",
        _flag("--ideal", help="monomial ideal JSON"),
        _flag("--ideal-file", help="path to monomial ideal JSON"),
        _flag("--expected", help="Betti table JSON to compare against"))
def _cmd_betti_oracle(args):
    from . import koszul
    ideal = _ideal_from_args(args)
    expected = None     # read before the oracle runs, so a bad table costs nothing
    if args.expected:
        expected = BettiTable.from_json(_json_flag(args.expected, "--expected"))
    table = koszul.betti_numbers(ideal)
    payload = {"table": table.to_json()}
    if expected is not None:
        ok, diffs = koszul.compare_tables(table, expected)
        payload["matches"] = ok
        payload["diff"] = diffs
    return payload, ("koszul-homology-oracle",)


@_route("liaison link",
        _flag("--z", type=IntList, required=True, help="CI type, e.g. 2,2,3"),
        _flag("--hq", type=IntList, required=True, help="Hilbert function of Q, e.g. 1,3,3,1"),
        _flag("--lax", action="store_true", help="allow the zero result (self-link)"))
def _cmd_liaison_link(args):
    from . import liaison
    z = args.z.ints()
    datum = liaison.LinkDatum.of(z)
    hg = liaison.link_hilbert(z, HilbertFunction(args.hq.ints()), strict=not args.lax)
    return ({"hg": hg.to_json(), "theta": datum.theta, "e": datum.e},
            ("liaison-hilbert-duality",))


@_route("liaison cone",
        _flag("--table", required=True, help="Betti table JSON of Q"),
        _flag("--z", type=IntList, required=True))
def _cmd_liaison_cone(args):
    from . import liaison
    table = BettiTable.from_json(_json_flag(args.table, "--table"))
    cone = liaison.mapping_cone_twists(table, args.z.ints())
    return cone.to_json(), ("mapping-cone-twists",)


@_route("classify tables", _A, _H)
def _cmd_classify_tables(args):
    from . import classify
    poset = classify.enumerate_tables(args.a, args.h)
    return poset.to_json(), ("maximal-tables", "allowed-cancellations")


@_route("classify tmax", _A)
def _cmd_classify_tmax(args):
    from . import classify
    return classify.t_max(args.a), ("t-max-at-h-2a",)


@_route("classify dstar", _A, _H,
        _flag("--t", type=int, required=True, help="number of last syzygies"))
def _cmd_classify_dstar(args):
    from . import classify
    return classify.d_star(args.a, args.h, args.t), ("d-star-parity",)


@_route("gorenstein gaeta",
        _flag("--delta", type=IntList, required=True, help="sorted degrees, e.g. 2,3,3,4,4"))
def _cmd_gorenstein_gaeta(args):
    from . import classify
    delta = as_delta(args.delta.ints())
    result = classify.gaeta_check(delta)
    return ({"ok": result.ok, "reason": result.reason, "theta": theta_of(delta)},
            ("gaeta-conditions",))


@_route("gorenstein delta-low", _A, _H, schema="gorenstein-delta")
def _cmd_gorenstein_delta_low(args):
    from . import classify
    return list(classify.delta_low(args.a, args.h)), ("gorenstein-link-degrees",)


@_route("gorenstein delta-high", _A, _H, schema="gorenstein-delta")
def _cmd_gorenstein_delta_high(args):
    from . import classify
    return list(classify.delta_high(args.a, args.h)), ("gorenstein-link-degrees",)


@_route("pfaffian alt", _flag("--delta", type=IntList, required=True))
def _cmd_pfaffian_alt(args):
    from . import pfaffians
    m = pfaffians.alt_matrix(args.delta.ints())
    entries = [
        {"i": i, "j": j, "degree": m.theta - m.delta[i - 1] - m.delta[j - 1],
         "terms": m.entry(i, j).to_json()}
        for i in range(1, m.size + 1) for j in range(i + 1, m.size + 1)
    ]
    payload = {
        "delta": list(m.delta),
        "theta": m.theta,
        "size": m.size,
        "variables": list(m.ring.names),
        "entries": entries,
        "pretty": m.pretty(),
    }
    return payload, ("alternating-matrix",)


@_route("pfaffian sub",
        _flag("--delta", type=IntList, required=True), _flag("--i", type=int, required=True))
def _cmd_pfaffian_sub(args):
    from . import pfaffians
    m = pfaffians.alt_matrix(args.delta.ints())
    if not 1 <= args.i <= m.size:
        raise DomainError("input-error", f"--i must be in 1..{m.size}")
    p_i = pfaffians.pfaffian(m, [k for k in range(1, m.size + 1) if k != args.i])
    return ({"variables": list(p_i.ring.names), "terms": p_i.to_json(),
             "degree": p_i.degree(), "pretty": str(p_i)}, ("sub-pfaffians",))


@_route("pfaffian example")
def _cmd_pfaffian_example(args):
    from . import pfaffians
    w = pfaffians.witness_ideals_a3_h5()
    payload = {
        "variables": list(w.matrix.ring.names),
        "iq": [p.to_json() for p in w.iq],
        "iw": [p.to_json() for p in w.iw],
        "iq_pretty": [str(p) for p in w.iq],
        "iw_pretty": [str(p) for p in w.iw],
        "degrees_q": list(w.degrees_q()),
        "degrees_w": list(w.degrees_w()),
        "sorted_degrees": sorted(w.degrees_q()),
    }
    return payload, ("pfaffian-witness-ideals",)


@_route("export cas",
        _flag("--kind", required=True,
              help="script kind; an unknown one is refused with the list"),
        _flag("--ideal", help="monomial ideal JSON (kind=monomial)"), _flag("--ideal-file"),
        _flag("--expected", help="expected Betti table JSON comment"),
        _flag("--out", help="output file name (under ACI3_OUTPUT_DIR)"))
def _cmd_export_cas(args):
    import hashlib

    from . import cas
    ideal = expected = None     # the pfaffian kinds read neither flag
    if args.kind == "monomial":
        ideal = _ideal_from_args(args)
        data = _json_flag(args.expected, "--expected") if args.expected else None
        if data is not None:
            expected = BettiTable.from_json(data)
    script = cas.export_cas(args.kind, ideal, expected)
    path = _write_output(args.out or f"{args.kind}.m2", script)
    digest = hashlib.sha256(script.encode()).hexdigest()
    payload = {"kind": args.kind, "path": path,
               "bytes": len(script.encode()), "sha256": digest}
    return payload, ("cas-export",)


@_route("verify",
        _flag("--scope", default="all",
              help="all (the default) or one scope; an unknown one is refused with the list"),
        _flag("--max-degree", type=int), _flag("--max-a", type=int))
def _cmd_verify(args):
    from . import verify
    bounds = {"max_degree": args.max_degree, "max_a": args.max_a}   # verify_suite's if not given
    report = verify.verify_suite(args.scope, **{k: v for k, v in bounds.items() if v is not None})
    for check in report.checks:
        word = "ok  " if check.ok else "FAIL"
        print(f"{word} {check.name}: {check.detail}", file=sys.stderr)
    return report.to_json(), ("verification-suite",)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as an input-error instead of exiting with status 2."""

    def error(self, message):
        raise DomainError("input-error", f"{self.prog}: {message}")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every route; given ``argv``, only the group it names gets
    its routes.  That group is the first group name in ``argv``: argparse takes
    the first token that is not an option, and no top-level option takes a value."""
    chosen = None if argv is None else next((arg for arg in argv if arg in _GROUPS), None)
    parser = _Parser(
        prog="aci3",
        description="Hilbert functions and Betti tables of codimension-3 "
                    "almost complete intersection artinian algebras")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, help_line in _GROUPS.items():
        group_parser = groups.add_parser(group, help=help_line)
        routes = [r for r in ROUTES if r.group == group] if argv is None or group == chosen else []
        if routes and routes[0].action is None:    # the group is one route
            _add_route(group_parser, routes[0])
        elif routes:
            actions = group_parser.add_subparsers(dest="action", required=True)
            for r in routes:    # help=None would still list the route in the group's --help
                _add_route(actions.add_parser(r.action, **({"help": r.help} if r.help else {})), r)
    return parser


def _add_route(p: argparse.ArgumentParser, route: Route) -> None:
    """Give ``p`` the route's flags, after ``--envelope``, and the route itself."""
    p.add_argument("--envelope", action="store_true",
                   help="print the full status envelope instead of the bare payload")
    for name, kwargs in route.flags:
        p.add_argument(name, **kwargs)
    p.set_defaults(route=route)


def run(argv) -> CommandResult:
    """Parse, execute and validate one command.

    A DomainError keeps its code.  Any other exception, from a bug or from a
    payload that breaks its schema, is an ``internal-error`` result instead
    of a traceback.  SystemExit (``--help``) and KeyboardInterrupt propagate.
    """
    try:
        args = build_parser(argv).parse_args(argv)
        payload, provenance = globals()[args.route.handler](args)
        validate_payload(args.route.schema, payload)
        result = CommandResult("ok", payload=payload, provenance=provenance,
                               show_envelope=args.envelope)
        validate_payload("envelope", result.envelope())
    except DomainError as exc:
        return CommandResult("error", code=exc.code, message=str(exc))
    except Exception as exc:
        return CommandResult("error", code="internal-error",
                             message=f"{type(exc).__name__}: {exc}")
    return result


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.status == "error":
        print(_dumps(result.envelope()), file=sys.stderr)
        return 1
    if result.show_envelope:
        print(_dumps(result.envelope()))
    else:
        print(_dumps(result.payload))
    if isinstance(result.payload, dict) and result.payload.get("passed") is False:
        return 1
    return 0
