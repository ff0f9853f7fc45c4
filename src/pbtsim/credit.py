"""Exact fixed-point credit arithmetic.

All fund amounts are integers counting micro-units (10^-6 of one currency
unit). Plain ints keep every operation exact, hashable and fast; floats
never enter the accounting path, so conservation checks and replays are
bit-identical across runs.
"""

from __future__ import annotations

import sys

from .errors import ParseError

# Micro-units per whole currency unit; weights carry <= 6 fractional digits.
SCALE = 10**6
FRACTION_DIGITS = 6


def credit(amount: int | str | float) -> int:
    """Convert a whole-unit amount into micro-units.

    Strings are parsed exactly; floats are rounded to the nearest micro-unit.
    No command calls it: it is a test aid for writing amounts in fixtures.
    """
    if isinstance(amount, int):
        return amount * SCALE
    if isinstance(amount, str):
        return parse_credit(amount)
    return round(amount * SCALE)


def parse_credit(text: str, line: int | None = None) -> int:
    """Parse a decimal string of ASCII digits, at most 6 after the point, into micro-units."""
    try:
        # Fast path for the canonical forms `d+` and `d+.d{1,6}`; every other
        # text, valid or not, takes the general path below.
        if text.isdigit() and text.isascii():
            return int(text) * SCALE
        whole, dot, frac = text.partition(".")
        if dot and 0 < len(frac) <= FRACTION_DIGITS and whole.isdigit() and frac.isdigit() \
                and text.isascii():
            return int(whole) * SCALE + int(frac.ljust(FRACTION_DIGITS, "0"))
        text = text.strip()
        negative = text.startswith("-")
        body = text[1:] if negative or text.startswith("+") else text
        whole, _, frac = body.partition(".")
        if not (whole or frac) or not body.isascii() \
                or (whole and not whole.isdigit()) or (frac and not frac.isdigit()):
            raise ParseError(f"invalid amount {text!r}", line)
        if len(frac) > FRACTION_DIGITS:
            raise ParseError(f"more than {FRACTION_DIGITS} fractional digits in {text!r}", line)
        value = int(whole or "0") * SCALE + int(frac.ljust(FRACTION_DIGITS, "0") or "0")
    except ValueError:  # as in parse_int
        raise ParseError(f"amount has more than {sys.get_int_max_str_digits()} digits", line) from None
    return -value if negative else value


def parse_int(text: str, what: str, line: int | None = None) -> int:
    """Parse a nonnegative integer of ASCII digits; `what` names it in the error."""
    if not (text.isdigit() and text.isascii()):
        text = text.strip()
        if not (text.isascii() and text.isdigit()):
            raise ParseError(f"{what} must be an integer, got {text!r}", line)
    try:
        return int(text)
    except ValueError:  # checked digits: only Python's int conversion limit is left
        raise ParseError(f"{what} has more than {sys.get_int_max_str_digits()} digits", line) from None


def format_credit(value: int) -> str:
    """Canonical decimal rendering; trailing zeros trimmed, integral -> no dot."""
    sign = "-" if value < 0 else ""
    whole, frac = divmod(abs(value), SCALE)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:06d}".rstrip("0")
