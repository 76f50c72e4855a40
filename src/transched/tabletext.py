"""CSV table rows as bytes, made on arrays: ``dataset.write_table``'s cells.

``dataset.write_table`` checks a table, then writes it a chunk of rows at a
time, each chunk ``chunk_bytes`` of the columns ``table_column`` prepared.
A chunk is one uint8 array of rows: every cell of a column takes a slot of
one width, its bytes NUL-padded, a comma or newline follows each slot, and
dropping the NULs leaves the text.  A float is its ``repr`` (the
``floattext`` kernel's, for large chunks), a NaN an empty cell; an integer
its decimal digits; a label the UTF-8 bytes of its code's label, copied by
code, and code -1 an empty cell.  Only the commands that write a table
compile this module.
"""

from __future__ import annotations

import os

import numpy as np

from .dataset import LabelColumn
from .errors import DataError

# A chunk's float cells come from ``floattext.float_bytes``, in one call
# for all its float columns, when they hold KERNEL_CHUNK_FLOATS values or
# more; below that the call's fixed cost, some 120 numpy calls, outweighs
# what it saves on each value, and each float is ``repr``'d in Python.
KERNEL_CHUNK_FLOATS = 512

# Divisors that split an integer below 10**24 into three 8-digit parts
_DIGIT_PARTS = np.array([10**16, 10**8, 1], dtype=np.uint64)


def table_column(path: str | os.PathLike, col):
    """A column as ``chunk_bytes`` takes it: a float64 or an integer
    array, or, for labels, ``(codes, table)`` where row k of ``table`` holds
    label k's UTF-8 bytes, NUL-padded, and the last row, code -1, none."""
    if isinstance(col, np.ndarray) and col.dtype.kind in "fiu":
        return col.astype(np.float64, copy=False) if col.dtype.kind == "f" else col
    if not isinstance(col, LabelColumn):
        index: dict[str, int] = {}
        cells = col.tolist() if isinstance(col, np.ndarray) else col
        codes = [index.setdefault(str(cell), len(index)) for cell in cells]
        col = LabelColumn(np.array(codes, dtype=np.intp), list(index))
    codes = np.asarray(col.codes)
    if codes.size and not -1 <= codes.min() <= codes.max() < len(col.labels):
        raise DataError(f"{path}: a label code lies outside -1..{len(col.labels) - 1}")
    labels = [label.encode() for label in col.labels]
    for label, text in zip(col.labels, labels):
        if b"\0" in text:  # the padding: the label would lose the byte
            raise DataError(f"{path}: label {label!r} holds a NUL, which a table cell cannot")
    return codes, padded([*labels, b""], max(map(len, labels), default=0))


def chunk_bytes(columns: list, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the prepared columns as text: each column's
    cells NUL-padded side by side in one byte array of rows, a comma or
    newline after each, then every NUL dropped."""
    floats = [col[lo:hi] for col in columns if isinstance(col, np.ndarray) and col.dtype.kind == "f"]
    if floats:
        values = np.concatenate(floats)
        if values.size < KERNEL_CHUNK_FLOATS:
            text = repr_bytes(values)
        else:
            from .floattext import float_bytes

            text = float_bytes(values)
        floats = iter(text.reshape(len(floats), -1, 24))
    cells = []
    for col in columns:
        if isinstance(col, tuple):
            codes, table = col
            cells.append(table[codes[lo:hi]])
        elif col.dtype.kind == "f":
            cells.append(next(floats))
        else:
            cells.append(int_bytes(col[lo:hi]))
    ends = np.cumsum([c.shape[1] + 1 for c in cells])
    rows = np.zeros((len(cells[0]), ends[-1]), dtype=np.uint8)
    for c, end in zip(cells, ends.tolist()):
        rows[:, end - 1 - c.shape[1] : end - 1] = c
    rows[:, ends - 1] = ord(",")
    rows[:, -1] = ord("\n")
    return rows[rows != 0]


def padded(cells: list[bytes], width: int) -> np.ndarray:
    """(len(cells), width) uint8: each cell's bytes, NUL-padded to ``width``."""
    text = b"".join(c.ljust(width, b"\0") for c in cells)
    return np.frombuffer(text, dtype=np.uint8).reshape(len(cells), width)


def repr_bytes(values: np.ndarray) -> np.ndarray:
    """(n, 24) uint8: each float64's ``repr``, NUL-padded; a NaN is all NUL."""
    return padded([b"" if v != v else repr(v).encode() for v in values.tolist()], 24)


def int_bytes(values: np.ndarray) -> np.ndarray:
    """(n, w) uint8: each integer's decimal digits, NUL-padded in front,
    after a column holding the '-' of a negative value when one is."""
    u = np.uint64
    if values.dtype.kind == "u":
        size, negative = values.astype(u), None
    else:
        values = values.astype(np.int64, copy=False)
        size = np.abs(values).view(u)  # -2**63 wraps to itself: 2**63
        negative = values < 0
    width = len(str(int(size.max())))
    parts = _DIGIT_PARTS[-((width + 7) // 8) :]
    digits = size[:, None] // parts % u(10**8)
    swar_digits(digits)
    # a digit shows from its word's first nonzero digit on, and so does
    # every digit of a word after one that shows; the last digit always does
    first = (digits + u(0x7F7F7F7F7F7F7F7F)) & u(0x8080808080808080)
    first[:, -1] |= u(1 << 63)
    first &= ~first + u(1)
    first >>= u(7)
    first -= u(1)
    shown = ~first
    for j in range(1, parts.size):
        shown[shown[:, j - 1] != 0, j] = ~u(0)
    digits |= shown & u(0x3030303030303030)
    text = digits.astype("<u8", copy=False).view(np.uint8)[:, 8 * parts.size - width :]
    if negative is None or not negative.any():
        return text
    signed = np.zeros((len(text), width + 1), dtype=np.uint8)
    signed[:, 1:] = text
    signed[negative, 0] = ord("-")
    return signed


def swar_digits(x: np.ndarray) -> None:
    """Turn each uint64 x < 10**8, in place, into eight digit bytes (0..9),
    the most significant in the low byte: split into lanes of four digits,
    then of two and of one, dividing every lane at once by a multiply and
    shift."""
    u = np.uint64
    high = x // u(10_000)
    x -= high * u(10_000)
    x <<= u(32)
    x |= high
    high = x * u(10_486)
    high >>= u(20)
    high &= u(0x0000007F0000007F)  # // 100 in each 32-bit lane
    x -= high * u(100)
    x <<= u(16)
    x |= high
    high = x * u(103)
    high >>= u(10)
    high &= u(0x000F000F000F000F)  # // 10 in each 16-bit lane
    x -= high * u(10)
    x <<= u(8)
    x |= high
