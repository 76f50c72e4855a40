"""Shortest decimals of float64 arrays: Giulietti's Schubfach on uint64.

``shortest_decimal(bits)`` gives, for each double, the shortest
decimal d * 10**k that reads back as it, the closest of those, ties to
even: the digits CPython's ``repr`` prints.  The algorithm is R. Giulietti,
"The Schubfach way to render doubles" (2020; ``Double.toString`` since JDK
19).  Its three products per value, of g(k) with the value and with the two
ends of its rounding interval, share one exact 64x128-bit product, formed
on uint64 arrays from 32-bit limbs.  It takes the doubles from 1e-4 to
1e16 in magnitude, those ``repr`` writes without an exponent, and no power
of two, whose lower neighbour is nearer than its upper.

Every operand is a uint64 or int64 array or a numpy scalar of that type:
numpy 1.x's value-based casting and numpy 2's NEP 50 promote Python-int
operands differently, a uint64 with an int64 operand promotes to float64
under both, and overflow in numpy scalar arithmetic warns where the array
arithmetic here wraps on purpose.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_I = np.int64
_M32 = _U(0xFFFFFFFF)
_M64 = (1 << 64) - 1
_FRACTION = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_K_MIN = -20  # k = floor(q log10 2) over the binary exponents q, -66..1,
# of the doubles from 1e-4 to 1e16


@functools.cache
def _g_table() -> np.ndarray:
    """(3, 21) uint64 by k = K_MIN..0: the low and high words of Schubfach's
    g(k) = 10**-k * 2**(127 - floor(log2 10**-k)) + 1, so 2**127 < g <
    2**128, then t = floor(log2 10**-k) + 3."""
    words, shifts = [], []
    for k in range(_K_MIN, 1):
        p = 10**-k
        log2 = p.bit_length() - 1
        words.append((p << 127 - log2) + 1)
        shifts.append(log2 + 3)
    return np.array([[g & _M64 for g in words], [g >> 64 for g in words], shifts], dtype=_U)


def shortest_decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's shortest decimal d * 10**k of each double in ``bits``
    (1e-4 <= |v| < 1e16, not a power of two): uint64 d and int64 k."""
    c = bits & _FRACTION
    c |= _HIDDEN
    odd = c & _U(1)  # the bounds belong to the interval when c is even
    shift = ((bits >> _U(52)) & _U(0x7FF)).view(_I) - _I(1075)  # the binary exponent q
    k = shift * _I(315_653)
    k >>= _I(20)  # floor(q log10 2) for |q| <= 1650
    g = _g_table().take(k - _I(_K_MIN), axis=1)
    shift = shift.view(_U)
    shift += g[2]  # h + 2, where h in 1..4 scales 4c * 2**h
    c <<= shift
    # the exact product g * cp (cp = 4c * 2**h) in three words, from 32-bit
    # limbs g0..g3 of g and the low and high limb of cp: column i + 1 (of 32
    # bits) collects the high half of limb i times cp's low limb, limb i
    # times its high limb and the low half of limb i + 1 times its low limb,
    # each sum below 2**60
    low = np.empty((4, c.size), dtype=_U)
    np.bitwise_and(g[:2], _M32, out=low[0::2])
    np.right_shift(g[:2], _U(32), out=low[1::2])
    cols = low * (c >> _U(32))
    c &= _M32
    low *= c
    del c
    cols += low >> _U(32)
    low &= _M32
    cols[:3] += low[1:]
    cols[1] += cols[0] >> _U(32)
    cols[2] += cols[1] >> _U(32)
    cols[3] += cols[2] >> _U(32)
    p = low[1:]
    np.bitwise_or(cols[0] << _U(32), low[0], out=p[0])
    np.bitwise_or(cols[1] & _M32, cols[2] << _U(32), out=p[1])
    p[2] = cols[3]
    del cols
    # the bounds of the value's interval are g * (cp -+ 2**(h + 1)): the
    # product plus D = g * 2**(h + 1) and plus 2**192 - D, both at once;
    # D's low word is never 0, so 2**192 - D is (-d0, ~d1, ~d2)
    shift -= _U(1)
    bound = np.empty((2, 3, shift.size), dtype=_U)
    np.right_shift(g[:2], _U(64) - shift, out=bound[1, 1:])
    np.left_shift(g[0], shift, out=bound[1, 0])
    bound[1, 1] |= g[1] << shift
    del g, shift
    np.subtract(_U(0), bound[1, 0], out=bound[0, 0])
    np.bitwise_xor(bound[1, 1:], _U(_M64), out=bound[0, 1:])
    bound += p
    carry = bound[:, 0] < p[0]
    bound[:, 1] += carry
    carry &= bound[:, 1] == p[1]  # a carry in, and the sum of the rest was 2**64 - 1
    carry |= bound[:, 1] < p[1]
    bound[:, 2] += carry
    del carry
    # round to odd: floor(x / 2**128), made odd when it drops a nonzero part
    vbl, vbr = bound[:, 2] | (bound[:, 1] > _U(1))
    vb = p[2] | (p[1] > _U(1))
    del bound, p, low
    vbl += odd
    vbr -= odd
    del odd
    s = vb >> _U(2)
    s4 = vb & _U(~3 & _M64)
    # s and s + 1, of 16 or 17 digits, around the value: the one inside, or
    # when both are, the nearer, ties to even; vb & 7 is 3, 6 or 7 when the
    # value is above the midpoint, or on it with s odd
    uin = vbl <= s4
    s4 += _U(4)
    win = s4 <= vbr
    del s4
    d = s + np.where(uin ^ win, win, (_U(0xC8) >> (vb & _U(7))) & _U(1))
    del uin, win, vb
    # one digit fewer, when exactly one of s's neighbours in tens is inside
    s //= _U(10)
    s *= _U(40)
    upin = vbl <= s
    s += _U(40)
    wpin = s <= vbr
    s >>= _U(2)
    s -= _U(10)
    s += wpin * _U(10)
    return np.where(upin ^ wpin, s, d), k
