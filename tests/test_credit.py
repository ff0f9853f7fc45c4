import pytest
from hypothesis import example, given, settings, strategies as st

from pbtsim.credit import FRACTION_DIGITS, SCALE, credit, format_credit, parse_credit, parse_int
from pbtsim.errors import ParseError


def test_whole_units():
    assert credit(10) == 10 * SCALE
    assert credit("10") == 10 * SCALE
    assert credit(0) == 0


def test_parse_fractions_exact():
    assert parse_credit("1.5") == 1_500_000
    assert parse_credit("0.000001") == 1
    assert parse_credit("123.456789") == 123_456_789
    assert parse_credit("-2.25") == -2_250_000


@pytest.mark.parametrize("bad", ["", ".", "1.2.3", "1,5", "abc", "1.1234567", "²", "1.²", "٢", "-٣.5"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_credit(bad)


def test_format_round_trip():
    for raw in ("0", "1", "10.5", "0.000001", "999999.999999", "3.14"):
        assert format_credit(parse_credit(raw)) == raw


def test_format_canonical():
    assert format_credit(1_500_000) == "1.5"
    assert format_credit(2 * SCALE) == "2"
    assert format_credit(-1) == "-0.000001"


# ---- the canonical-digit fast paths against the general parsers ---------------------


def general_parse_credit(text, line=None):
    """`parse_credit` without its fast path."""
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
    return -value if negative else value


def general_parse_int(text, what, line=None):
    """`parse_int` without its fast path."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"{what} must be an integer, got {text!r}", line)
    return int(text)


def outcome(parse, *args):
    try:
        return "value", parse(*args)
    except ParseError as e:
        return "error", str(e)


_digits = st.text(alphabet="0123456789٣²", max_size=4)
_amounts = st.one_of(
    st.text(alphabet="0123456789٣²+- _.", max_size=12),
    st.builds(
        lambda sign, whole, dot, frac, pad: pad + sign + whole + dot + frac + pad,
        st.sampled_from(["", "+", "-"]), _digits, st.sampled_from(["", ".", "_", ".."]),
        st.text(alphabet="0123456789٣²_", max_size=8), st.sampled_from(["", " ", "\t"])),
)


# A dot with no fraction, no whole part, a seventh fractional digit, leading
# and trailing zeros, and a non-ASCII digit after a canonical whole part.
@example("7.", None)
@example(".5", 7)
@example("7.1234567", None)
@example("07.50", None)
@example("7.٣", 7)
@settings(max_examples=1000, deadline=None)
@given(_amounts, st.sampled_from([None, 7]))
def test_fast_paths_match_the_general_parsers(text, line):
    assert outcome(parse_credit, text, line) == outcome(general_parse_credit, text, line)
    assert outcome(parse_int, text, "node id", line) == \
        outcome(general_parse_int, text, "node id", line)
