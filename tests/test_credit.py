import pytest

from pbtsim.credit import SCALE, credit, format_credit, parse_credit
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
