"""The numpy formatters against Python's own ``%`` on every value."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterlearn.textfmt import _f2_hundredths, _g17_decimal, format_f2, format_g17


def python_text(fmt, values, seps):
    """``fmt % v`` of each entry, each followed by its column's separator."""
    table = np.asarray(values, dtype=float)
    seps = seps.decode("ascii")
    return "".join(fmt % v + seps[j] for row in table.tolist() for j, v in enumerate(row))


def assert_g17(values):
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    assert format_g17(column, b"\n").decode("ascii") == python_text("%.17g", column, b"\n")


def assert_f2(values):
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    assert format_f2(column, b" ").decode("ascii") == python_text("%.2f", column, b" ")


SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           2.225073858507201e-308, -1e-310, 1.7976931348623157e308, -1.7976931348623157e308]


def random_bit_patterns(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False).view(np.float64)
    return np.concatenate([values, SPECIAL])


def powers_of_ten():
    """10**k as the nearest double, and both neighbours, for every k a double reaches."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    tens = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    return np.concatenate([tens, -tens])


def exact_ties(per_k, seed):
    """Doubles with exactly 18 significant digits, the last a 5: each lies
    halfway between two 17-digit decimals.  An odd ``r`` over ``2**k`` has
    ``k`` decimals ending in 5; ``r`` is chosen so that 18 digits are significant."""
    rng = np.random.default_rng(seed)
    ties = [1.6e15 + 0.25 + 0.5 * np.arange(200)]
    for k in range(2, 18):
        lo, hi = 2**k * 10 ** (17 - k), min(2**53, 2**k * 10 ** (18 - k))
        r = rng.integers(lo // 2, hi // 2, size=per_k) * 2 + 1
        ties.append(r / 2.0**k)
    ties = np.concatenate(ties)
    return np.concatenate([ties, -ties])


def test_g17_random_bit_patterns():
    values = random_bit_patterns(200_000, seed=0)
    assert np.isnan(values).any() and np.isinf(values).any()
    assert ((np.abs(values) < 2.2250738585072014e-308) & (values != 0)).any()  # subnormals
    assert_g17(values)


def test_g17_powers_of_ten_and_their_neighbours():
    assert_g17(powers_of_ten())


def test_g17_exact_ties_round_half_to_even():
    ties = exact_ties(500, seed=1)
    assert "%.17g" % 1600000000000000.25 == "1600000000000000.2"  # a tie, to even
    assert not _g17_decimal(np.abs(ties))[2].any()  # every tie goes to Python
    assert_g17(ties)
    assert_g17(np.concatenate([ties * 1e-100, ties * 1e100]))


def test_g17_every_layout():
    # fixed from 1e-4 to below 1e17, else exponents of two or three digits,
    # each with 1 to 17 significant digits; dyadic values end in zeros
    rng = np.random.default_rng(2)
    digits = str(rng.integers(10**16, 10**17))
    values = [float(f"{digits[:d]}e{e}") for d in range(1, 18) for e in range(-320, 300)]
    assert_g17(values)
    assert_g17(np.arange(-3000, 3000) / 64)


def test_g17_separators_follow_their_columns():
    table = np.array([[0.0, -1.5, np.nan], [1e-5, 123.0, -np.inf]])
    assert format_g17(table, b",;\n") == b"0,-1.5;nan\n1.0000000000000001e-05,123;-inf\n"
    assert format_g17(np.zeros((0, 3)), b",,\n") == b""
    with pytest.raises(ValueError, match="one separator per column"):
        format_g17(table, b",")
    with pytest.raises(ValueError, match="2-D"):
        format_g17(np.zeros(3), b",")


def test_g17_fallback_branches():
    values = {
        "near tie": 1600000000000000.25,
        "wrong exponent estimate": np.nextafter(1e-300, 0.0),
        "subnormal": 5e-324,
        "below 1e-280": 1e-290,
        "above 1e280": 1e290,
        "infinity": np.inf,
    }
    a = np.abs(np.array(list(values.values())))
    assert np.floor(np.log10(a[1])) != -301  # log10 puts it at 1e-300
    assert not _g17_decimal(a)[2].any()
    assert_g17(list(values.values()))
    # nan and zeros have fixed texts; the rest of a row is decided
    assert _g17_decimal(np.array([1.0, 0.1, 1.5e-5, 1e17, 123456789.125]))[2].all()


def test_g17_raises_no_floating_point_error():
    with np.errstate(all="raise"):
        assert_g17(random_bit_patterns(10_000, seed=3))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_g17_property(values):
    assert_g17(values)


def test_f2_values_and_exact_ties():
    rng = np.random.default_rng(4)
    values = np.concatenate([
        rng.uniform(-1000, 1000, 100_000),
        np.round(rng.uniform(0, 900, 50_000), 3),  # many near ties
        np.arange(-2000, 2000) / 8,  # exact ties such as 0.125
        [0.125, 2.675, 1.005, 0.005, -0.005, 0.0, -0.0, -0.001, 1e-320, 999999999999999.9],
    ])
    assert_f2(values)
    # about half of these are over 1e15, so their texts are up to 310 bytes
    assert_f2(random_bit_patterns(5_000, seed=5))


def test_f2_fallback_branches():
    # near ties, magnitudes from 1e15 up (a text wider than the row) and
    # non-finite values go to Python
    values = [0.125, 2.675, 1.005, 1e15, -1e300, np.inf, -np.inf, np.nan]
    assert not _f2_hundredths(np.abs(values))[1].any()
    assert_f2(values + [3.25])
    assert _f2_hundredths(np.array([3.25, 0.0, 1e-320, 12345.678, 999999999999999.8]))[1].all()
    xy = np.array([[70.0, 30.125], [850.0, 490.0]])
    assert format_f2(xy, b", ") == b"70.00,30.12 850.00,490.00 "


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_f2_property(values):
    assert_f2(values)
