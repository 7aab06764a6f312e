"""Seeded call lists for the benchmark workloads.

A workload is a sequence of blocks.  Every block of a workload holds the
same fixed set of cost classes (a CLI route, a rung of the oracle ladder
with or without --expected, a value of A, a verify scope), so every block
costs about the same and a run that stops at a block boundary runs the same
mix whatever the seed.  The seed picks the concrete input inside each class
and the order of the calls in a block; block ``b`` depends only on the seed
and ``b``.

The inputs are built here from the paper's formulas, without importing
``aci3``, so the checks in ``checks.py`` never share a code path with the
program they check.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field


@dataclass
class Call:
    """One ``python -m aci3 <argv>`` invocation and what its output must satisfy."""

    route: str                      # "hf ci", ..., "verify"
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)  # read by checks.py; "error" = expected code
    stratum: str = ""               # cost class within the block; the route if empty

    def __post_init__(self):
        self.stratum = self.stratum or self.route


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------- the paper's objects, written out independently of aci3 ----------

def aci_ideal(degs, h) -> dict:
    """Generators of the monomial ACI of CI(a1, a2, a3) with fourth degree h."""
    a1, a2, a3 = degs
    return {"c": 3, "gens": [[a1, 0, 0], [0, a2, 0], [0, 0, h],
                             [a1 + a3 - h, a2 - a1, h - a2]]}


def rigid_ideal(a) -> dict:
    """(x^a, y^(a+1), z^a, x^(a-1) y): the h = a + 1 table with t = 2."""
    return {"c": 3, "gens": [[a, 0, 0], [0, a + 1, 0], [0, 0, a], [a - 1, 1, 0]]}


def ci_table(degs) -> dict:
    """Koszul (complete-intersection) Betti table of CI(degs), c = 3."""
    a1, a2, a3 = degs
    return {"c": 3, "levels": [[0], sorted(degs), sorted([a1 + a2, a1 + a3, a2 + a3]),
                               [a1 + a2 + a3]]}


def rigid_table(a) -> dict:
    return {"c": 3, "levels": [[0], sorted([a, a, a, a + 1]),
                               sorted([2 * a, 2 * a, 2 * a, 2 * a + 1, a + 1]),
                               sorted([2 * a + 1, 3 * a])]}


def delta_low(a, h) -> list[int]:
    degs = [h - a, a, a] + list(range(a + 1, h))
    if (h - a) % 2 == 0:
        degs.append((a + h) // 2)
    return sorted(degs)


def delta_high(a, h) -> list[int]:
    degs = [a, a] + list(range(h - a, 2 * a))
    if (h - a) % 2 == 0:
        degs.append((a + h) // 2)
    return sorted(degs)


def poset_depth(a, h) -> int:
    """k with 2^k - 1 tables in the classification poset of (a, h)."""
    return (h - a) // 2 + 1 if h <= 2 * a - 1 else (3 * a - h) // 2


# ---------- cli-mix: every route once per block, plus malformed calls ----------

def _degs(rng, hi=6):
    return sorted(rng.randint(2, hi) for _ in range(3))


def _delta(rng, max_len=7):
    while True:
        a = rng.randint(2, 5)
        h = rng.randint(a + 1, 3 * a - 2)
        delta = delta_low(a, h) if h <= 2 * a - 1 else delta_high(a, h)
        if len(delta) <= max_len:
            return delta


def _link_pair(rng):
    """CI type z and a CI type b <= z (positionwise, b != z): Q = CI(b) lies in Z."""
    while True:
        z = _degs(rng)
        b = [rng.randint(2, zi) for zi in z]
        if b != z:
            return z, b


def _oracle_small(rng):
    a3 = rng.randint(2, 4)
    if rng.random() < 0.3:
        return {"ideal": rigid_ideal(a3), "degrees": [a3] * 3, "h": a3 + 1,
                "expected": rigid_table(a3)}
    a1 = rng.randint(2, a3)
    a2 = rng.randint(a1, a3)
    degs = [a1, a2, a3]
    h = rng.randint(a3 + 1, a3 + a1 - 1)
    return {"ideal": aci_ideal(degs, h), "degrees": degs, "h": h, "expected": ci_table(degs)}


def _oracle_call(case, with_expected) -> Call:
    argv = ["betti", "oracle", "--ideal", _json(case["ideal"])]
    expect = {"degrees": case["degrees"], "h": case["h"], "ideal": case["ideal"]}
    if with_expected:
        argv += ["--expected", _json(case["expected"])]
        expect["expected"] = case["expected"]
    return Call("betti oracle", tuple(argv), expect)


def _mix_valid(rng, b) -> list[Call]:
    calls = []
    d = _degs(rng)
    calls.append(Call("hf ci", ("hf", "ci", "--degrees", _csv(d)), {"degrees": d}))
    d, k = _degs(rng, 5), rng.randint(1, 3)
    calls.append(Call("hf diff", ("hf", "diff", "--hf", _csv(ci_values(d)), "--order", str(k)),
                      {"hf": ci_values(d), "order": k}))
    d = _degs(rng)
    calls.append(Call("hf from-betti", ("hf", "from-betti", "--table", _json(ci_table(d))),
                      {"degrees": d}))
    d = _degs(rng)
    calls.append(Call("hf recognize", ("hf", "recognize", "--hf", _csv(ci_values(d))),
                      {"degrees": d}))
    d = _degs(rng)
    calls.append(Call("hf bound", ("hf", "bound", "--hf", _csv(ci_values(d)), "--c", "3",
                                   "--j", str(d[0])), {"degrees": d}))
    d = _degs(rng)
    h = rng.randint(d[2] + 1, d[2] + d[0] - 1)
    calls.append(Call("aci monomial", ("aci", "monomial", "--degrees", _csv(d), "--h", str(h),
                                       "--verify"), {"degrees": d, "h": h}))
    calls.append(_oracle_call(_oracle_small(rng), rng.random() < 0.5))
    z, q = _link_pair(rng)
    calls.append(Call("liaison link", ("liaison", "link", "--z", _csv(z),
                                       "--hq", _csv(ci_values(q))), {"z": z, "q": q}))
    z, q = _link_pair(rng)
    calls.append(Call("liaison cone", ("liaison", "cone", "--table", _json(ci_table(q)),
                                       "--z", _csv(z)), {"z": z, "q": q}))
    a = rng.randint(2, 8)
    h = rng.randint(a + 1, 3 * a - 2)
    calls.append(Call("classify tables", ("classify", "tables", "--a", str(a), "--h", str(h)),
                      {"a": a, "h": h}))
    a = rng.randint(2, 12)
    calls.append(Call("classify tmax", ("classify", "tmax", "--a", str(a)), {"a": a}))
    a = rng.randint(2, 8)
    h = rng.randint(a + 1, 3 * a - 2)
    t = rng.choice((3, 5) if h >= 2 * a else (2, 3, 4, 5))
    calls.append(Call("classify dstar", ("classify", "dstar", "--a", str(a), "--h", str(h),
                                         "--t", str(t)), {"a": a, "h": h, "t": t}))
    delta = _delta(rng)
    calls.append(Call("gorenstein gaeta", ("gorenstein", "gaeta", "--delta", _csv(delta)),
                      {"delta": delta}))
    a = rng.randint(2, 8)
    h = rng.randint(a + 1, 2 * a - 1)
    calls.append(Call("gorenstein delta-low", ("gorenstein", "delta-low", "--a", str(a),
                                               "--h", str(h)), {"delta": delta_low(a, h)}))
    a = rng.randint(2, 8)
    h = rng.randint(2 * a, 3 * a - 2)
    calls.append(Call("gorenstein delta-high", ("gorenstein", "delta-high", "--a", str(a),
                                                "--h", str(h)), {"delta": delta_high(a, h)}))
    delta = _delta(rng)
    calls.append(Call("pfaffian alt", ("pfaffian", "alt", "--delta", _csv(delta)),
                      {"delta": delta}))
    delta = _delta(rng)
    i = rng.randint(1, len(delta))
    calls.append(Call("pfaffian sub", ("pfaffian", "sub", "--delta", _csv(delta), "--i", str(i)),
                      {"delta": delta, "i": i}))
    calls.append(Call("pfaffian example", ("pfaffian", "example")))
    kind = rng.choice(("pfaffian-q", "pfaffian-w", "monomial"))
    # One file name per block: the checks read the file after the run.
    argv = ["export", "cas", "--kind", kind, "--out", f"export-{b}.m2"]
    if kind == "monomial":
        case = _oracle_small(rng)
        argv += ["--ideal", _json(case["ideal"]), "--expected", _json(case["expected"])]
    calls.append(Call("export cas", tuple(argv), {"kind": kind}))
    scope = rng.choice(("betti", "liaison", "gaeta", "cas"))
    max_a = rng.randint(2, 6)
    calls.append(Call("verify", ("verify", "--scope", scope, "--max-a", str(max_a)),
                      {"scope": scope}))
    return calls


def _mix_malformed(rng) -> Call:
    """A call the README answers with a JSON error: bad JSON, a non-integer
    where integers are due, or h out of range."""
    d = _degs(rng)
    a = rng.randint(2, 8)
    bad = _csv(d).replace(str(d[1]), rng.choice(("x", "3.5", "three")), 1)
    cut = _json(ci_table(d))[:rng.randint(1, 20)]
    options = [
        Call("hf ci", ("hf", "ci", "--degrees", bad), {"error": "input-error"}),
        Call("hf diff", ("hf", "diff", "--hf", bad), {"error": "input-error"}),
        Call("gorenstein gaeta", ("gorenstein", "gaeta", "--delta", bad), {"error": "input-error"}),
        Call("hf from-betti", ("hf", "from-betti", "--table", cut), {"error": "input-error"}),
        Call("liaison cone", ("liaison", "cone", "--table", cut, "--z", _csv(d)),
             {"error": "input-error"}),
        Call("betti oracle", ("betti", "oracle", "--ideal", _json(aci_ideal(d, d[2] + 1))[:-3]),
             {"error": "input-error"}),
        Call("classify tables", ("classify", "tables", "--a", str(a), "--h", str(3 * a)),
             {"error": "h-out-of-range"}),
        Call("aci monomial", ("aci", "monomial", "--degrees", _csv(d), "--h", str(d[2] + d[0])),
             {"error": "h-out-of-range"}),
        Call("classify dstar", ("classify", "dstar", "--a", str(a), "--h", str(a), "--t", "3"),
             {"error": "h-out-of-range"}),
        Call("gorenstein delta-low", ("gorenstein", "delta-low", "--a", str(a),
                                      "--h", str(2 * a)), {"error": "h-out-of-range"}),
    ]
    return rng.choice(options)


MIX_MALFORMED_PER_BLOCK = 5


def _cli_mix_block(seed, b) -> list[Call]:
    rng = random.Random(f"cli-mix:{seed}:{b}")
    calls = _mix_valid(rng, b) + [_mix_malformed(rng) for _ in range(MIX_MALFORMED_PER_BLOCK)]
    rng.shuffle(calls)
    return calls


# ---------- oracle-ladder: rungs a = 2..8 ----------

def _ladder_case(rng, a):
    shape = rng.choice(("equal", "rigid", "spread") if a > 2 else ("equal", "rigid"))
    if shape == "rigid":
        return {"ideal": rigid_ideal(a), "degrees": [a] * 3, "h": a + 1,
                "expected": rigid_table(a)}
    degs = [a, a, a] if shape == "equal" else [a - 1, a, a + 1]
    h = rng.randint(degs[2] + 1, degs[2] + degs[0] - 1)
    return {"ideal": aci_ideal(degs, h), "degrees": degs, "h": h, "expected": ci_table(degs)}


def _oracle_ladder_block(seed, b) -> list[Call]:
    # Rungs 2..7 run once with and once without --expected, rung 8 once
    # without: 13 calls, an odd count of cost classes, so the median and the
    # 75th percentile fall inside a class (rungs 5 and 6) and not on a gap
    # between two.
    rng = random.Random(f"oracle-ladder:{seed}:{b}")
    calls = []
    for a, with_expected in [(a, e) for a in range(2, 8) for e in (False, True)] + [(8, False)]:
        call = _oracle_call(_ladder_case(rng, a), with_expected)
        call.stratum = f"a={a}" + " expected" * with_expected
        calls.append(call)
    rng.shuffle(calls)
    return calls


# ---------- poset-large: each A = 12..18 twice ----------

POSET_A = range(12, 19)


def _poset_large_block(seed, b) -> list[Call]:
    # Each A twice: once with an h giving its largest poset, once with an h
    # giving the second largest.  The h values of one size cost the same.
    rng = random.Random(f"poset-large:{seed}:{b}")
    calls = []
    for a in POSET_A:
        hs = range(a + 1, 3 * a - 1)
        top = max(poset_depth(a, h) for h in hs)
        for depth in (top, top - 1):
            h = rng.choice([h for h in hs if poset_depth(a, h) == depth])
            calls.append(Call("classify tables",
                              ("classify", "tables", "--a", str(a), "--h", str(h)),
                              {"a": a, "h": h}, f"A={a} depth={depth}"))
    rng.shuffle(calls)
    return calls


# ---------- verify-scopes ----------

VERIFY_D = (5, 6, 7)
VERIFY_A = tuple(range(6, 13))


def _verify_scopes_block(seed, b) -> list[Call]:
    # Six calls of fixed cost: the monomial scope costs by D alone, the
    # classification scope by A alone, the pfaffian scope by neither, and
    # the two (D, A) pairs offered to the full suite cost within 3% of each
    # other.  The seed picks the parameters that leave the cost unchanged and
    # the order.  The median then falls between the two middle classes and
    # the 75th percentile on the pfaffian scope.
    rng = random.Random(f"verify-scopes:{seed}:{b}")
    d, a = VERIFY_D, VERIFY_A
    plan = [("all", *rng.choice(((5, 9), (6, 6)))),
            ("pfaffian", rng.choice(d), rng.choice(a)),
            ("monomial", 5, rng.choice(a)), ("monomial", 7, rng.choice(a)),
            ("classification", rng.choice(d), 8), ("classification", rng.choice(d), 11)]
    labels = ("all", "pfaffian", "monomial D=5", "monomial D=7",
              "classification A=8", "classification A=11")
    calls = [Call("verify", ("verify", "--scope", scope, "--max-degree", str(d),
                             "--max-a", str(a)), {"scope": scope}, label)
             for label, (scope, d, a) in zip(labels, plan)]
    rng.shuffle(calls)
    return calls


# The smallest call of each workload's main route, run untimed during set-up.
WARMUP = {
    "cli-mix": Call("hf ci", ("hf", "ci", "--degrees", "2,2,2"), {"degrees": [2, 2, 2]}),
    "oracle-ladder": _oracle_call({"ideal": rigid_ideal(3), "degrees": [3, 3, 3], "h": 4,
                                   "expected": rigid_table(3)}, False),
    "poset-large": Call("classify tables", ("classify", "tables", "--a", "12", "--h", "13"),
                        {"a": 12, "h": 13}),
    "verify-scopes": Call("verify", ("verify", "--scope", "classification", "--max-degree",
                                     "5", "--max-a", "6"), {"scope": "classification"}),
}

_BLOCKS = {
    "cli-mix": _cli_mix_block,
    "oracle-ladder": _oracle_ladder_block,
    "poset-large": _poset_large_block,
    "verify-scopes": _verify_scopes_block,
}

WORKLOADS = tuple(_BLOCKS)


def blocks(name: str, seed: int, count: int) -> list[list[Call]]:
    """The first ``count`` blocks of workload ``name`` for ``seed``."""
    return [_BLOCKS[name](seed, b) for b in range(count)]


def ci_values(degs) -> list[int]:
    """Hilbert function of CI(degs): the product of the polynomials 1 + t + ... + t^(a-1)."""
    values = [1]
    for a in degs:
        out = [0] * (len(values) + a - 1)
        for i, v in enumerate(values):
            for k in range(a):
                out[i + k] += v
        values = out
    return values
