class DomainError(ValueError):
    """Invalid input or a mathematically impossible request.

    Carries a stable machine-readable ``code`` alongside the human message,
    so CLI consumers can dispatch on it.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def as_tuple(values, what: str) -> tuple:
    """The caller's sequence as a tuple.  A value that cannot be iterated (a
    bare int, a float, None) is refused with input-error naming it."""
    try:
        items = iter(values)
    except TypeError:
        raise DomainError("input-error", f"need a sequence of {what}, got {values!r}") from None
    return tuple(items)


def as_ints(values, what: str, floor: int | None = None) -> tuple[int, ...]:
    """The caller's integers as a tuple: the one test of whether a caller's
    value is an integer.  Only an int is, so a bool, 2.0, "2" and a Fraction
    are refused, never truncated or parsed.  Raises input-error naming the
    first entry that is not an int, then the first below ``floor`` if given.
    ``values`` is a sequence: pass one integer x as (x,); a bare x is
    refused by ``as_tuple``."""
    vals = as_tuple(values, what)
    if not set(map(type, vals)) <= {int}:
        bad = next(v for v in vals if type(v) is not int)
        raise DomainError("input-error", f"need integer {what}, got {bad!r}")
    if floor is not None and vals and min(vals) < floor:
        bad = next(v for v in vals if v < floor)
        raise DomainError("input-error", f"need {what} >= {floor}, got {bad}")
    return vals


def check_h(h: int, window: range, code: str = "h-out-of-range") -> None:
    """Refuse an h outside the window, naming its ends: the one h message."""
    if h not in window:
        raise DomainError(code, f"h outside ({window.start} .. {window.stop - 1}): got {h}")
