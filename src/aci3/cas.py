"""Macaulay2 script generation for claims that need an external normal-form
engine (non-monomial ideals and their artinian reductions).

Scripts are pure functions of their payload, so the emitted bytes are stable
across runs.  Each script reconstructs the ideal from scratch (for the
pfaffian witnesses, Macaulay2 recomputes the pfaffians itself from the
alternating matrix, cross-checking the in-process engine), passes to an
artinian reduction by a deterministic pseudo-random linear substitution, and
prints the Betti table next to the expected one for manual comparison.
"""

from __future__ import annotations

from .errors import DomainError
from .hilbert import BettiTable
from .monomials import MonomialIdeal, format_monomial, var_names

_SEED = 20260810

EXPORT_KINDS = ("pfaffian-q", "pfaffian-w", "monomial")


def _expected_comment(table: BettiTable) -> list[str]:
    lines = ["-- expected twists by homological degree:"]
    for i, level in enumerate(table.levels):
        lines.append(f"--   {i}: {{{', '.join(str(j) for j in level)}}}")
    return lines


def _pfaffian_script(variant: str) -> str:
    from . import pfaffians     # here, so the monomial kind does not load it
    w, recipes = pfaffians.witness_ideals_a3_h5(), pfaffians.WITNESS_RECIPE
    alt = w.matrix
    span = range(1, alt.size + 1)
    rows = ",\n".join("  {" + ", ".join(str(alt.entry(i, j)) for j in span) + "}" for i in span)
    # the pfaffians either variant uses, as the script and its comments name them
    used = sorted({d for recipe in recipes.values() for d, _ in recipe}, key=lambda d: (len(d), d))
    name = {d: "p" + "".join(map(str, d)) for d in used}
    shown = {d: f"p_{d[0]}" if len(d) == 1 else "p_{" + ",".join(map(str, d)) + "}" for d in used}
    pfdel = {d: f"{name[d]} = pfdel {{{', '.join(str(k - 1) for k in d)}}};" for d in used}
    lines = [
        f"-- pfaffian witness ideal, variant {variant.upper()}: almost complete",
        "-- intersection with Hilbert function of CI(3,3,3), generator degrees",
        "-- sorting to (3,3,3,5).",
        "-- generators: " + ", ".join("*".join(ys + (shown[d],)) for d, ys in recipes[variant])
        + f" (degrees {', '.join(map(str, w.degrees(variant)))})",
        *_expected_comment(pfaffians.witness_tables()[variant]),
        f"setRandomSeed {_SEED};",
        "S = QQ[" + ", ".join(alt.ring.names) + "];",
        "A = matrix {",
        rows,
        "};",
        "assert(A + transpose A == 0);",
        "-- p_i: pfaffian of A with row and column i deleted (1-based);",
        "-- p_{i,j,k}: same with three rows and columns deleted",
        f"pfdel = rows -> (gens pfaffians({alt.size} - #rows, submatrix'(A, rows, rows)))_(0,0);",
        *(" ".join(pfdel[d] for d in used if len(d) == n) for n in sorted(set(map(len, used)))),
        "I = ideal(" + ", ".join("*".join(ys + (name[d],)) for d, ys in recipes[variant]) + ");",
        "-- artinian reduction: specialize the 12 variables generically to 3",
        "T = QQ[t1, t2, t3];",
        "phi = map(T, S, apply(numgens S, i -> random(1, T)));",
        "J = phi I;",
        "assert(dim J == 0);",
        "print betti res J;",
    ]
    return "\n".join(lines) + "\n"


def _monomial_script(ideal: MonomialIdeal, expected: BettiTable | None) -> str:
    names = var_names(ideal.c)
    lines = [
        "-- Betti table of an artinian monomial quotient",
        f"-- ideal: {ideal.pretty()}",
    ]
    if expected is not None:
        lines.extend(_expected_comment(expected))
    lines.extend([
        "R = QQ[" + ", ".join(names) + "];",
        "I = ideal(" + ", ".join(format_monomial(g, sep="*") for g in ideal.gens) + ");",
        "print betti res I;",
    ])
    return "\n".join(lines) + "\n"


def export_cas(kind: str, ideal: MonomialIdeal | None = None,
               expected: BettiTable | None = None) -> str:
    """Macaulay2 script for the given claim; byte-stable in its arguments.

    Kinds: ``pfaffian-q`` and ``pfaffian-w`` (the two witness ideals for
    (a, h) = (3, 5); ``ideal`` and ``expected`` are ignored), and
    ``monomial`` (the script of ``ideal``, with ``expected``, if given, as
    a comment).
    """
    if kind in ("pfaffian-q", "pfaffian-w"):
        return _pfaffian_script(kind[-1])
    if kind == "monomial":
        if ideal is None:
            raise DomainError("input-error", "monomial export needs an ideal")
        if ideal.is_zero or ideal.is_unit:
            raise DomainError("input-error", "export needs a proper nonzero ideal")
        return _monomial_script(ideal, expected)
    raise DomainError("input-error",
                      f"unsupported export kind {kind!r}; choose from {EXPORT_KINDS}")


def script_is_balanced(text: str) -> bool:
    """Cheap parse-cleanliness check: balanced brackets outside comments and
    statements terminated before end of file."""
    pairs = {")": "(", "}": "{", "]": "["}
    stack = []
    for line in text.splitlines():
        code = line.split("--", 1)[0]
        for ch in code:
            if ch in "({[":
                stack.append(ch)
            elif ch in ")}]":
                if not stack or stack[-1] != pairs[ch]:
                    return False
                stack.pop()
    return not stack and text.endswith("\n")
