class DomainError(ValueError):
    """Invalid input or a mathematically impossible request.

    Carries a stable machine-readable ``code`` alongside the human message,
    so CLI consumers can dispatch on it.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def as_ints(values, what: str, floor: int | None = None) -> tuple[int, ...]:
    """The caller's integers as a tuple: the one test of whether a caller's
    value is an integer.  Only an int is, so a bool, 2.0, "2" and a Fraction
    are refused, never truncated or parsed.  Raises input-error naming the
    first entry that is not an int, then the first below ``floor`` if given.
    A scalar x is read as (x,)."""
    vals = tuple(values)
    if not set(map(type, vals)) <= {int}:
        bad = next(v for v in vals if type(v) is not int)
        raise DomainError("input-error", f"need integer {what}, got {bad!r}")
    if floor is not None and vals and min(vals) < floor:
        bad = next(v for v in vals if v < floor)
        raise DomainError("input-error", f"need {what} >= {floor}, got {bad}")
    return vals
