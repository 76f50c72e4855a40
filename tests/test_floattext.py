"""``floattext.float_bytes`` writes what ``repr`` writes, cell for cell."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from transched import schubfach
from transched.floattext import float_bytes


def _repr_cells(values):
    return ["" if v != v else repr(v) for v in values.tolist()]


def _assert_cells_are_repr(values):
    # each row is the cell's bytes, padded with NULs to 24
    values = np.asarray(values, dtype=np.float64)
    got = float_bytes(values)
    want = [cell.encode().ljust(24, b"\0") for cell in _repr_cells(values)]
    assert got.shape == (len(want), 24) and got.dtype == np.uint8
    bad = [(i, g, w) for i, (g, w) in enumerate(zip(map(bytes, got), want)) if g != w]
    assert not bad, bad[:10]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=100))
def test_any_floats_are_repr_and_nan_is_empty(values):
    _assert_cells_are_repr(values)


def test_random_bit_patterns_are_repr():
    # every sign, exponent and fraction, NaN payloads and subnormals among
    # them; then as many with the exponents of 1e-4 <= |v| < 1e16, the
    # kernel's range, in one call
    rng = np.random.default_rng(2020)
    bits = rng.integers(0, 2**64, size=120_000, dtype=np.uint64)
    _assert_cells_are_repr(bits.view(np.float64))
    bits &= np.uint64(0x800F_FFFF_FFFF_FFFF)
    bits |= rng.integers(1009, 1077, size=bits.size, dtype=np.uint64) << np.uint64(52)
    _assert_cells_are_repr(bits.view(np.float64))


def test_edge_values_are_repr():
    edges = [
        0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16,
        9999999999999998.0, 1e-5, 1e-4, 123.0, 1e22, 1e23, float("inf"), float("nan"),
    ] + [2.0**k for k in range(-1074, 1024)]
    values = np.array(edges + [-v for v in edges])
    # each decimal point position, from exponent form through 0.000ddd to
    # 17 integral digits and back, and a value either side of each power of
    # ten, within ordinary values
    tens = 10.0 ** np.arange(-20, 24)
    steps = tens.view(np.uint64)
    near = np.concatenate([tens, (steps - np.uint64(1)).view(np.float64), (steps + np.uint64(1)).view(np.float64)])
    ordinary = np.random.default_rng(7).normal(size=values.size) * 100.0
    _assert_cells_are_repr(np.concatenate([values, near, -near, ordinary]))
    _assert_cells_are_repr(np.stack([values, ordinary], axis=1).ravel())


def test_decimal_rounding_boundaries_are_repr():
    # integers of 15 to 17 digits and short decimals: ties and the one-digit-
    # fewer candidate of Schubfach
    rng = np.random.default_rng(31)
    integers = rng.integers(-(10**17), 10**17, size=20_000).astype(np.float64)
    decimals = np.round(rng.normal(size=20_000) * 1e3, 3)
    _assert_cells_are_repr(np.concatenate([integers, decimals, decimals * 1e-9]))


def test_g_table_holds_the_premises_of_the_kernel():
    # 2**127 < g < 2**128; the interval bound 2**192 - g * 2**(h + 1) is
    # (-d0, ~d1, ~d2) because g's low word keeps a set bit through a shift
    # by h + 1 <= 5; and h = q + t - 2 is 1..4 for every binary exponent q
    # of the doubles the kernel takes, 1e-4 <= |v| < 1e16
    low, high, t = (row.tolist() for row in schubfach._g_table())
    assert all(2**63 <= h < 2**64 for h in high)
    assert all(w and (w & -w).bit_length() - 1 < 64 - 5 for w in low)
    q_min = int(np.float64(1e-4).view(np.uint64) >> np.uint64(52)) - 1075
    q_max = int(np.float64(1e16).view(np.uint64) >> np.uint64(52)) - 1075
    assert (q_min, q_max) == (-66, 1)
    for q in range(q_min, q_max + 1):
        k = (q * 315_653) >> 20
        assert 1 <= q + t[k - schubfach._K_MIN] - 2 <= 4
