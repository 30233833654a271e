"""Number parsing against a spec written without the parser's own code.

`io._number` reads "p/q" and "p" in ASCII digits through int, an ASCII
decimal in float mode through one float(), and every other text through
Fraction, after a regular expression has checked the exponent against
MAX_EXPONENT. The spec below reads every text through Fraction(text) and
finds the exponent by hand. Both must give the same reduced pair (the
nearest float's in float mode) or refuse the text with the same message.

Drawn digit runs stay short. The examples hold runs of more than 4300
digits, Python's default limit on the digits int() reads: a number that
Fraction reads only beyond that limit is refused in both modes with one
message that names the limit, though float() would read it.
"""

import sys
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefcheck.io import MAX_DIGITS, MAX_EXPONENT, _Misplaced, _number


def over_cap(text: str) -> bool:
    """Whether `text` ends in "e" or "E", an optional sign and a run of
    digits and underscores, then optional whitespace, whose digits after
    their leading ASCII zeros and underscores read above MAX_EXPONENT."""
    at = max(text.rfind("e"), text.rfind("E"))
    if at < 0:
        return False
    power = text[at + 1 :].rstrip()
    if power[:1] in ("+", "-"):
        power = power[1:]
    power = power.lstrip("0_")
    if not all(c.isdecimal() or c == "_" for c in power):
        return False
    digits = power.replace("_", "")
    return len(digits) > 4 or int(digits or 0) > MAX_EXPONENT


def read_without_a_digit_limit(text: str) -> bool:
    """Whether Fraction reads `text` as a number, with a zero denominator
    or not, when int() may read any number of digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        Fraction(text)
    except ZeroDivisionError:
        return True
    except ValueError:
        return False
    finally:
        sys.set_int_max_str_digits(limit)
    return True


def spec(text: str, mode: str):
    """The reduced (numerator, denominator) pair of `text` read in `mode`,
    or the message that refuses it."""
    if over_cap(text):
        return "decimal exponent above %d in magnitude" % MAX_EXPONENT
    try:
        value = Fraction(text)
    except ValueError:
        if read_without_a_digit_limit(text):
            return "number has a run of more than %d digits" % MAX_DIGITS
        return "%r is not a valid number (use 'p/q' or a decimal)" % text
    except ZeroDivisionError:
        return "%r is not a valid number (use 'p/q' or a decimal)" % text
    if mode == "rational":
        return value.as_integer_ratio()
    try:
        return float(value).as_integer_ratio()
    except OverflowError:
        return "%r is out of range for float mode" % text


def parsed(text: str, mode: str):
    try:
        return _number(text, mode)
    except _Misplaced as err:
        return err.message


# Digits: ASCII, ARABIC-INDIC THREE and ZERO, and underscores between them.
RUN = st.lists(
    st.sampled_from(["0", "1", "7", "9", "٣", "٠", "_"]),
    max_size=8,
).map("".join)
SPACE = st.sampled_from(["", "", "", " ", "\t", "\n", " "])
SIGN = st.sampled_from(["", "", "-", "+"])
# Exponents on both sides of the cap, some with leading zeros or
# underscores, and small ones that keep the value in float range.
POWER = st.one_of(
    st.integers(0, 400).map(str),
    st.integers(4290, 4310).map(str),
    st.integers(0, 99999).map(str),
    st.sampled_from(["04300", "004301", "4_300", "43_01", "0_0", "00000"]),
    RUN,
)
EXPONENT = st.one_of(
    st.just(""),
    st.builds("".join, st.tuples(st.sampled_from("eE"), SIGN, POWER)),
)
DECIMAL = st.builds(
    "".join,
    st.tuples(
        SPACE,
        SIGN,
        RUN,
        st.sampled_from(["", ".", "."]),
        RUN,
        EXPONENT,
        SPACE,
    ),
)
RATIO = st.builds(
    "".join, st.tuples(SPACE, SIGN, RUN, st.sampled_from(["/", "/"]), RUN)
)
WORDS = st.builds(
    "".join,
    st.tuples(
        SIGN,
        st.sampled_from(
            ["inf", "Infinity", "nan", "NaN", "e", "E5", "x", "1e5e5", ""]
        ),
    ),
)
TEXT = st.one_of(DECIMAL, RATIO, WORDS)


@settings(max_examples=2000, deadline=None)
@given(TEXT, st.sampled_from(["rational", "float"]))
@example("0.1", "float")
@example("1e308", "float")
@example("1.7976931348623157e308", "float")
@example("1.7976931348623159e308", "float")
@example("1e-400", "float")
@example("1e4300", "float")
@example("1e4301", "rational")
@example("0e99999", "float")
@example("-1e-4300", "float")
@example("1e٠٠4300", "float")
@example("007/12", "float")
@example("12", "float")
@example("1" * 400, "float")
@example("1" * 5000, "float")
@example("0" * 5000 + "1", "float")
@example("0." + "1" * 5000, "float")
@example("0." + "1" * 5000, "rational")
@example("-" + "1" * 4301 + "e-4300", "float")
@example("1" * 4300 + "." + "1" * 4300, "rational")
@example("1" * 4300 + "." + "1" * 4300 + "e-4300", "float")
@example("1e" + "0" * 4301, "float")
@example("1/" + "0" * 4301, "float")
@example("1" * 5000 + "x", "float")
@example(" 1.5", "float")
@example("1_0.5", "float")
@example("٣.5", "float")
@example("inf", "float")
@example("nan", "rational")
def test_number_parsing_matches_the_fraction_spec(text, mode):
    assert parsed(text, mode) == spec(text, mode)
