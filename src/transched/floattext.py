"""Float64 arrays as the text ``repr`` gives each value, computed on arrays.

``float_bytes(values)`` returns, row for row, the UTF-8 bytes of
``repr(v)`` for each value, NUL-padded to 24 bytes, and 24 NULs for a NaN.
The digits are ``schubfach``'s: the shortest decimal that reads back as the
value, the closest of those, ties to even, which is what CPython's
``repr`` prints.  The text follows CPython's fixed-point layout, with
``.0`` on an integral value.  A cell is three little-endian uint64 words,
one ASCII character a byte; the cells of one sign, point position and
digit count share one layout, looked up in a table and applied with word
shifts and masks.  The kernel is two modules, this and ``schubfach``: a
process that writes no bytecode compiles them on first use, and two halves
compiled one after the other peak lower in memory than one module.

``repr`` itself writes the rest: values it puts in exponent form (below
1e-4 or from 1e16 in magnitude, 0.03-0.12 % of the float cells the
benchmark's workloads write), zeros, subnormals, powers of two (whose
lower neighbour is nearer) and non-finite values.  A call costs some 120
numpy calls whatever its length, so ``tabletext`` sends only large chunks
here.

Every operand is a uint64 or int64 array or a numpy scalar of that type,
as in ``schubfach``.
"""

from __future__ import annotations

import functools

import numpy as np

from .tabletext import padded, repr_bytes, swar_digits
from .schubfach import shortest_decimal

_U = np.uint64
_I = np.int64
_FRACTION = _U((1 << 52) - 1)
_ONES = 0x0101010101010101
# repr's fixed-point range, as the bits of |v|: decimal point positions
# e = -3..16, where v = 0.d1d2... * 10**e
_LOW = np.float64(1e-4).view(_U)
_HIGH = np.float64(1e16).view(_U)
_SIGN = _U(1 << 63)


@functools.cache
def _layout_table() -> np.ndarray:
    """(12, 680) uint64 by 340 * negative + 17 * (e + 3) + digits - 1, for
    the decimal point position e = -3..16 and 1..17 significant digits.
    The rows say where digits 2..17, held as 16 ASCII bytes in two words,
    and the first digit go, and what else the cell holds:

    - 0, 1: the bit shifts of the digits before and of those after the point
    - 2..4, 5..7: the byte masks, three words each, of the digits before and
      after the point, up to the cell's length
    - 8..10: the sign, the point and the zeros of "0.000"
    - 11: the bit shift of the first digit
    """
    fields, before, after, fill = [], [], [], []
    for neg in (0, 1):
        sign = b"-" * neg
        for e in range(-3, 17):
            if e < 1:  # "0.00123": "0.", the zeros, then all digits
                first, shift, lead = neg + 2 - e, neg + 3 - e, neg + 1
                ends = [neg + 2 - e + n for n in range(1, 18)]
                fill += [sign + b"0." + b"0" * -e] * 17
            else:  # "123.45": e digits, then the point
                first, shift, lead = neg, neg + 2, neg + e
                ends = [neg + max(n, e + 1) + 1 for n in range(1, 18)]
                fill += [sign + b"\0" * e + b"."] * 17
            start = first + 1 if e < 1 else lead + 1
            before += [b"\0" * (neg + 1) + b"\xff" * (lead - neg - 1)] * 17
            after += [b"\0" * start + b"\xff" * (end - start) for end in ends]
            fields += [8 * (neg + 1), 8 * shift, 8 * first] * 17  # each below 256
    small = np.frombuffer(bytes(fields), dtype=np.uint8).reshape(-1, 3).T.astype(_U)
    words = [padded(cells, 24).view("<u8").T for cells in (before, after, fill)]
    return np.concatenate([small[:2], *words, small[2:]])


def _text_words(bits: np.ndarray) -> np.ndarray:
    """(3, n) uint64: the ``repr`` of each double in ``bits`` (1e-4 <= |v|
    < 1e16, not a power of two) as 24 NUL-padded little-endian bytes."""
    d, k = shortest_decimal(bits)
    # 17 digits: d has 16 or 17, and the value is 0.d * 10**e
    short = d < _U(10**16)
    d *= short * _U(9) + _U(1)
    e = k - short
    e += _I(17)
    del k, short
    top = d // _U(10**16)
    d -= top * _U(10**16)
    digits = np.empty((2, d.size), dtype=_U)
    np.floor_divide(d, _U(10**8), out=digits[0])
    np.subtract(d, digits[0] * _U(10**8), out=digits[1])
    del d
    swar_digits(digits)
    # significant digits: a byte's top bit flags a nonzero digit, and the
    # float64 exponent of the flags gives the last one's byte
    flags = ((digits + _U(0x7F * _ONES)) & _U(0x80 * _ONES)).astype(np.float64).view(_I)
    flags >>= _I(52)
    flags += np.array([[16 - 1030], [80 - 1030]], dtype=_I)
    key = np.maximum(flags[0], flags[1])
    del flags
    key >>= _I(3)
    np.maximum(key, _I(1), out=key)
    digits |= _U(0x30 * _ONES)
    key += e * _I(17) + (bits >> _U(63)).view(_I) * _I(340) + _I(3 * 17 - 1)
    del e
    table = _layout_table()
    # digits 2..17 shifted to their bytes before and after the point
    shift = table[:2].take(key, axis=1)
    parts = np.empty((2, 3, bits.size), dtype=_U)
    np.left_shift(digits, shift[:, None], out=parts[:, :2])
    shift = _U(64) - shift
    parts[:, 1] |= digits[0] >> shift
    np.right_shift(digits[1], shift, out=parts[:, 2])
    del digits, shift
    parts &= table[2:8].take(key, axis=1).reshape(2, 3, -1)
    text = parts[0] | parts[1]
    del parts
    text |= table[8:11].take(key, axis=1)
    top |= _U(0x30)
    top <<= table[11].take(key)
    text[0] |= top
    return text


def float_bytes(values: np.ndarray) -> np.ndarray:
    """(n, 24) uint8: the ``repr`` of each float64 of ``values``, NUL-padded;
    a NaN is 24 NULs.  The kernel holds about 200 bytes a value at once, so
    the caller bounds the size of a call."""
    bits = values.view(_U)
    size = bits & ~_SIGN
    others = np.flatnonzero((size < _LOW) | (size >= _HIGH) | ((bits & _FRACTION) == _U(0)))
    del size
    if others.size:  # the kernel formats 1.5 in their place
        bits = bits.copy()
        bits[others] = np.float64(1.5).view(_U)
    text = np.ascontiguousarray(_text_words(bits).T, dtype="<u8").view(np.uint8)
    text[others] = repr_bytes(values[others])
    return text
