"""Output checks for every benchmark call.

Each check recomputes what it needs from the paper's formulas (written out
here and in ``workloads.py``) rather than from the ``aci3`` function that
produced the output.  The one exception is the classification oracle: a
Koszul table of an ideal with degrees (a, a, a) must be one of the tables
``aci3.classify.enumerate_tables`` lists, which shares no code with the
Koszul oracle.

``check(call, returncode, stdout, stderr, out_dir)`` returns ``None`` when
the output is right and a short cause string otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from math import prod

from workloads import ci_values, poset_depth

VERIFY_CHECKS = {"monomial": 2, "betti": 1, "classification": 3, "liaison": 1,
                 "gaeta": 1, "pfaffian": 3, "cas": 1}
VERIFY_CHECKS["all"] = sum(VERIFY_CHECKS.values())


def _trim(values) -> list[int]:
    values = list(values)
    while values and values[-1] == 0:
        values.pop()
    return values


def hf_from_levels(levels) -> list[int]:
    """Hilbert function of R/I from its Betti table in three variables:
    the alternating twist polynomial divided by (1 - t)^3."""
    top = max(max(level) for level in levels if level)
    coeffs = [0] * (top + 1)
    for i, level in enumerate(levels):
        for j in level:
            coeffs[j] += -1 if i % 2 else 1
    for _ in range(3):
        for n in range(1, len(coeffs)):
            coeffs[n] += coeffs[n - 1]
    return _trim(coeffs)


def link_values(z, hq) -> list[int]:
    e = sum(z) - len(z)
    hz = ci_values(z)

    def at(values, n):
        return values[n] if 0 <= n < len(values) else 0

    return _trim(at(hz, n) - at(hq, e - n) for n in range(e + 1))


def _poly_degrees(terms) -> set[int]:
    return {sum(t["exponents"]) for t in terms}


@lru_cache(maxsize=None)
def _classified(a, h) -> frozenset:
    import aci3.classify  # imported here: only the oracle check needs the package
    return frozenset(node.table.levels for node in aci3.classify.enumerate_tables(a, h).nodes)


def _as_levels(table) -> tuple:
    return tuple(tuple(level) for level in table["levels"])


# ---------- one function per route; each returns a cause or None ----------

def _hf_ci(x, p, _):
    if sum(p) != prod(x["degrees"]) or p != p[::-1] or p != ci_values(x["degrees"]):
        return "hf-not-ci"


def _hf_diff(x, p, _):
    values = list(x["hf"])
    for _ in range(x["order"]):
        values = [values[0]] + [values[n] - values[n - 1] for n in range(1, len(values))] \
            + [-values[-1]]
    if p != values:
        return "difference"


def _hf_from_betti(x, p, _):
    if _trim(p) != ci_values(x["degrees"]):
        return "hf-not-ci"


def _hf_recognize(x, p, _):
    if p != sorted(x["degrees"]):
        return "not-recognized"


def _hf_bound(x, p, _):
    if p != x["degrees"].count(x["degrees"][0]):
        return "bound"


def _aci_monomial(x, p, _):
    ci = ci_values(x["degrees"])
    if p.get("matches") is not True or _trim(p["hilbert"]) != ci or _trim(p["ci"]) != ci:
        return "hf-not-ci"
    if len(p["ideal"]["gens"]) != 4:
        return "generator-count"


def _betti_oracle(x, p, _):
    table = p["table"]
    levels = _as_levels(table)
    if hf_from_levels(table["levels"]) != ci_values(x["degrees"]):
        return "hf-not-ci"
    if list(levels[1]) != sorted(sum(g) for g in x["ideal"]["gens"]):
        return "generator-degrees"
    a1, a2, a3 = x["degrees"]
    if a1 == a2 == a3 and levels not in _classified(a1, x["h"]):
        return "not-classified"
    if "expected" in x:
        expected = x["expected"]["levels"]
        differing = [i for i in range(4) if list(levels[i]) != expected[i]]
        if p.get("matches") is not (not differing) or [d["level"] for d in p["diff"]] != differing:
            return "expected-comparison"
    elif "matches" in p:
        return "unrequested-comparison"


def _liaison_link(x, p, _):
    z = x["z"]
    if _trim(p["hg"]) != link_values(z, ci_values(x["q"])):
        return "link"
    if p["theta"] != sum(z) or p["e"] != sum(z) - 3:
        return "link-frame"


def _liaison_cone(x, p, _):
    hg = link_values(x["z"], ci_values(x["q"]))
    if _trim(p["hg"]) != hg or hf_from_levels(p["table"]["levels"]) != hg:
        return "cone-hf"


def _classify_tables(x, p, _):
    a, h = x["a"], x["h"]
    tables = p["tables"]
    if len(tables) != 2 ** poset_depth(a, h) - 1:
        return "node-count"
    ci = ci_values((a, a, a))
    for t in tables:
        if t["levels"][1] != sorted((a, a, a, h)) or hf_from_levels(t["levels"]) != ci:
            return "table-not-aci"
    n = len(tables)
    if any(not (0 <= e["src"] < n and 0 <= e["dst"] < n) for e in p["edges"]):
        return "edge-index"


def _classify_tmax(x, p, _):
    a = x["a"]
    if p != (a + 1 if a % 2 == 0 else a):
        return "t-max"


def _classify_dstar(x, p, _):
    if p != (x["a"] if x["t"] % 2 == 0 else x["h"]):
        return "d-star"


def _theta(delta):
    n = (len(delta) - 1) // 2
    return sum(delta) // n if sum(delta) % n == 0 else None


def _gorenstein_gaeta(x, p, _):
    if p["ok"] is not True or p["theta"] != _theta(x["delta"]):
        return "gaeta"


def _gorenstein_delta(x, p, _):
    if p != x["delta"] or len(p) % 2 == 0 or _theta(p) is None:
        return "delta"


def _pfaffian_alt(x, p, _):
    delta = x["delta"]
    theta = _theta(delta)
    if p["size"] != len(delta) or p["theta"] != theta or p["delta"] != delta:
        return "alt-frame"
    if len(p["entries"]) != len(delta) * (len(delta) - 1) // 2:
        return "alt-entries"
    for e in p["entries"]:
        deg = theta - delta[e["i"] - 1] - delta[e["j"] - 1]
        want = {deg} if deg > 0 else set()
        if e["degree"] != deg or _poly_degrees(e["terms"]) != want or len(e["terms"]) > 1:
            return "alt-entry-degree"


def _pfaffian_sub(x, p, _):
    want = x["delta"][x["i"] - 1]
    if p["terms"] and (_poly_degrees(p["terms"]) != {want} or p["degree"] != want):
        return "sub-pfaffian-degree"


def _pfaffian_example(x, p, _):
    if p["sorted_degrees"] != [3, 3, 3, 5]:
        return "witness-degrees"
    for key, degs in (("iq", p["degrees_q"]), ("iw", p["degrees_w"])):
        if [_poly_degrees(terms) for terms in p[key]] != [{d} for d in degs]:
            return "witness-homogeneity"


def _export_cas(x, p, out_dir):
    path = p["path"]
    if p["kind"] != x["kind"] or os.path.dirname(os.path.abspath(path)) != os.path.abspath(out_dir):
        return "cas-path"
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return "cas-missing"
    if len(data) != p["bytes"] or hashlib.sha256(data).hexdigest() != p["sha256"]:
        return "cas-digest"
    if b"betti res" not in data:
        return "cas-script"


def _verify(x, p, _):
    if p["scope"] != x["scope"] or p["passed"] is not True:
        return "verify-failed"
    if len(p["checks"]) != VERIFY_CHECKS[x["scope"]] or not all(c["ok"] for c in p["checks"]):
        return "verify-checks"


ROUTE_CHECKS = {
    "hf ci": _hf_ci,
    "hf diff": _hf_diff,
    "hf from-betti": _hf_from_betti,
    "hf recognize": _hf_recognize,
    "hf bound": _hf_bound,
    "aci monomial": _aci_monomial,
    "betti oracle": _betti_oracle,
    "liaison link": _liaison_link,
    "liaison cone": _liaison_cone,
    "classify tables": _classify_tables,
    "classify tmax": _classify_tmax,
    "classify dstar": _classify_dstar,
    "gorenstein gaeta": _gorenstein_gaeta,
    "gorenstein delta-low": _gorenstein_delta,
    "gorenstein delta-high": _gorenstein_delta,
    "pfaffian alt": _pfaffian_alt,
    "pfaffian sub": _pfaffian_sub,
    "pfaffian example": _pfaffian_example,
    "export cas": _export_cas,
    "verify": _verify,
}


def check(call, returncode, stdout: str, stderr: str, out_dir: str):
    """Cause of failure of one finished call, or None."""
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    code = call.expect.get("error")
    if code is not None:
        if returncode != 1 or stdout.strip():
            return "exit-code"
        try:
            err = json.loads(stderr.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "error-not-json"
        if err.get("status") != "error" or err.get("code") != code:
            return "error-code"
        return None
    if returncode != 0:
        return "exit-code"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "payload-not-json"
    try:
        return ROUTE_CHECKS[call.route](call.expect, payload, out_dir)
    except (KeyError, TypeError, IndexError, ValueError):
        return "payload-shape"
