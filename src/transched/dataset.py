"""Multichannel time-series records and their regression matrices.

A record is named channels of equal length; which channel is the
target and which are pseudo-inputs is the caller's choice, by name.  The
functions here cover CSV I/O, mean removal, lag-matrix construction,
and the parse cache that lets a command skip parsing a CSV it or
``simulate`` already read or wrote.
"""

from __future__ import annotations

import csv
import os
import zlib
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError

# Bytes per read of a file's parse-cache key.  Blocks stay below glibc's
# default mmap threshold (128 KiB); freeing larger ones raises that
# threshold, and later arrays then land on a heap that does not shrink.
GUARD_BLOCK_BYTES = 64 * 1024

# Format of a parse-cache entry, a part of its key: an entry of any other
# format is a miss.
PARSE_CACHE_VERSION = 1

# Rows per chunk of ``write_table``: the rows that hold this many floats
# (this many rows in a table without floats).  A chunk's text is made in
# one byte buffer and written at once, so memory stays flat whatever the
# table length.
WRITE_CHUNK_FLOATS = 1536


@dataclass(frozen=True, eq=False)
class TimeSeriesSet:
    """Uniformly sampled record: named channels of equal length, no label.

    ``data`` has shape (n_channels, n_samples); rows follow ``names``.
    Instances are immutable and the payload array is marked read-only, so
    records can be shared freely; callers file them under their condition.
    """

    names: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.atleast_2d(np.asarray(self.data, dtype=float))
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) != data.shape[0]:
            raise DataError("names and data rows must align")
        if data.shape[1] < 1:
            raise DataError("record must contain at least one sample")
        if not np.isfinite(data).all():
            k, t = np.argwhere(~np.isfinite(data))[0]
            raise DataError(
                f"non-finite value {float(data[k, t])!r} at sample {t} in channel {self.names[k]!r}"
            )
        if len(set(self.names)) != len(self.names):
            raise DataError("channel names must be unique")
        data.flags.writeable = False

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def channel(self, name: str) -> np.ndarray:
        try:
            i = self.names.index(name)
        except ValueError:
            raise DataError(f"unknown channel name {name!r}") from None
        return self.data[i]

    def channels(self, names: tuple[str, ...] | list[str]) -> np.ndarray:
        """Stack the requested channels into a (len(names), M) array."""
        return np.vstack([self.channel(n) for n in names])


# Default condition-number cap of the ridge rule, and the largest accepted
# (see regression.select_rho).  They and the check live here, not in
# ``regression``, so every command can check c_lim without loading the trainer.
DEFAULT_C_LIM = 1.0e6
MAX_C_LIM = 1.0e12


def _check_c_lim(c_lim: float) -> None:
    if not 1.0 < c_lim <= MAX_C_LIM:
        raise ConfigError(f"c_lim must exceed 1 and be at most {MAX_C_LIM:g}, got {c_lim}")


def _check_label(where: str, label: str, error: type[Exception] = DataError,
                 what: str = "condition label") -> None:
    """A condition label or channel name is a cell ``write_table`` writes
    unquoted, and an empty cell means "no label": it must be non-empty and
    hold no comma, double quote, CR or LF, and no NUL, which ``write_table``
    refuses in a label."""
    if not label or not set(label).isdisjoint(',"\r\n'):
        raise error(
            f"{where}: {label!r} is not a {what}: it must be non-empty "
            "and hold no comma, double quote, CR or LF"
        )
    if "\0" in label:
        raise error(f"{where}: {label!r} is not a {what}: it holds a NUL")


class LabelColumn:
    """A ``write_table`` column of labels as codes: cell i is
    ``labels[codes[i]]``, and an empty cell where the code is -1; any
    other code is a DataError.  A plain class: a dataclass would cost every
    command's import of this module."""

    def __init__(self, codes: np.ndarray, labels: Sequence[str]) -> None:
        self.codes = codes
        self.labels = labels

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True, eq=False)
class RegressionMatrices:
    """Design matrix and target vector for one regression: ``phi`` is
    (rows, parameters) and ``y`` has one value per row."""

    phi: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.phi) != 2 or np.shape(self.y) != np.shape(self.phi)[:1]:
            raise DataError(
                "a regression needs a 2-D design matrix and a 1-D target with one value "
                f"per row, got shapes {np.shape(self.phi)} and {np.shape(self.y)}"
            )

    @property
    def n_rows(self) -> int:
        return self.phi.shape[0]

    @property
    def n_params(self) -> int:
        return self.phi.shape[1]


def read_csv_header(path: str | os.PathLike) -> list[str]:
    """Column names of a CSV file's first row, stripped of surrounding
    whitespace, as ``load_csv`` reads them."""
    if not os.path.exists(path):
        raise DataError(f"file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            header = next(csv.reader(f))
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    except _READ_ERRORS as e:
        raise _unreadable(path, e) from None
    return [h.strip() for h in header]


# Raised by a file that cannot be opened, decoded or parsed as CSV.
_READ_ERRORS = (csv.Error, UnicodeDecodeError, OSError)


def _unreadable(path: str | os.PathLike, e: Exception) -> DataError:
    """A DataError naming the file for one of ``_READ_ERRORS``."""
    if isinstance(e, UnicodeDecodeError):
        return DataError(f"{path}: byte 0x{e.object[e.start]:02x} is not valid {e.encoding} text")
    if isinstance(e, OSError):
        return DataError(f"{path}: cannot read: {e.strerror or e}")
    return DataError(f"{path}: unreadable CSV: {e}")


def load_csv(
    path: str | os.PathLike,
    names: Sequence[str],
    cache: ParseCache | None = None,
) -> TimeSeriesSet:
    """Read a comma-separated file into a record.

    ``names`` are the channels to read, in the order of the result.  Each
    must appear in the header exactly once; other columns (e.g. a time
    axis or a label column) are ignored.

    The file is read as UTF-8 by the csv module; a leading byte order
    mark is skipped.  A file that cannot be read or decoded, or that the
    csv module rejects, is a ``DataError`` naming it.  With a ``cache``, a
    file whose entry is there is not parsed at all (see ``ParseCache``).
    """
    header = read_csv_header(path)
    names = tuple(names)
    if not names:
        raise DataError(f"{path}: no channel to read")
    for name in names:
        if name not in header:
            raise DataError(f"{path}: unknown channel name {name!r}, header has {header}")
        if header.count(name) > 1:
            raise DataError(
                f"{path}: channel {name!r} appears {header.count(name)} times in the header"
            )
    cols = [header.index(name) for name in names]

    def parse() -> np.ndarray:
        data = _load_rows(path, names, len(header), cols)
        bad = ~np.isfinite(data)
        if bad.any():
            t, k = np.argwhere(bad.T)[0]  # first offending row, then channel
            raise DataError(
                f"{path}: line {_data_line(path, t)}: non-finite value "
                f"{float(data[k, t])!r} in channel {names[k]!r}"
            )
        return data

    try:
        data = cache.load(path, cols, parse) if cache is not None else parse()
    except _READ_ERRORS as e:
        raise _unreadable(path, e) from None
    return TimeSeriesSet(names=names, data=data)


def _load_rows(
    path: str | os.PathLike, names: tuple[str, ...], n_columns: int, cols: list[int]
) -> np.ndarray:
    """(channels, samples) array read row by row with the csv module."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        next(reader)  # the header
        values = array("d")
        n_rows = 0
        for lineno, row in _numbered_rows(reader):
            if not row:
                continue
            if len(row) != n_columns:
                raise DataError(
                    f"{path}: line {lineno}: expected {n_columns} columns, found {len(row)}"
                )
            for k, name in enumerate(names):
                cell = row[cols[k]].strip()
                try:
                    values.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: line {lineno}: non-numeric value {cell!r} "
                        f"in channel {name!r}"
                    ) from None
            n_rows += 1
    if n_rows == 0:
        raise DataError(f"{path}: no samples")
    return np.frombuffer(values).reshape(n_rows, len(names)).T.copy()


def _data_line(path: str | os.PathLike, index: int) -> int:
    """1-based file line where the index-th (0-based) non-empty data row starts."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        lines = [lineno for lineno, row in _numbered_rows(csv.reader(f)) if row]
    return lines[index + 1]  # lines[0] is the header


def _numbered_rows(reader):
    """(file line the record starts on, record) for each record of a csv
    reader: a quoted cell can hold a newline, so a record can span lines."""
    end = reader.line_num
    for row in reader:
        yield end + 1, row
        end = reader.line_num


class ParseCache:
    """Arrays of parsed CSV files, kept as entry files in one directory.

    An entry is two ``.npy`` records in one file.  The first is an int64
    array: the key [PARSE_CACHE_VERSION, CSV byte length, CSV ``zlib.crc32``,
    selected column indices...], then the sample count.  The second is the
    (channels, samples) float64 array the parse gave.  An entry's name
    depends only on the CSV's base name and the column selection, so each
    pair has one entry and a new parse replaces a stale one.  An entry that
    is missing, unreadable, of another key, shape or dtype, or not finite
    is a miss, and the CSV is parsed.

    A command's new entries are written beside their places and moved into
    them by ``commit``, or removed by ``discard``.  An entry that cannot be
    written or moved is dropped; it never fails the command.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = directory
        self._parsed: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # entry -> (key, data)
        self._staged: dict[str, str] = {}  # entry -> its temporary file

    def _entry(self, path: str | os.PathLike, cols: list[int]) -> str:
        name = os.fsencode(os.path.basename(path)) + b":" + ",".join(map(str, cols)).encode()
        return os.path.join(self.directory, f".parse-cache-{zlib.crc32(name):08x}.npy")

    def load(self, path: str | os.PathLike, cols: list[int], parse) -> np.ndarray:
        """The columns ``cols`` of the CSV at ``path``: from its entry when
        that holds the key of the file's bytes, else ``parse()``, which is
        kept for ``commit``."""
        key = _content_key(path, cols)
        entry = self._entry(path, cols)
        try:
            with open(entry, "rb") as f:
                stored = np.load(f, allow_pickle=False)
                data = np.load(f, allow_pickle=False)
            hit = (
                stored.dtype == key.dtype and np.array_equal(stored[:-1], key)
                and data.dtype == np.float64 and data.flags.c_contiguous
                and data.shape == (len(cols), stored[-1]) and data.size > 0
                and bool(np.isfinite(data).all())
            )
        except Exception:  # an entry is only a hint: whatever fails reading it is a miss
            hit = False
        if hit:
            return data
        data = parse()
        self._parsed.setdefault(entry, (key, data))
        return data

    def add_written(
        self, path: str | os.PathLike, written_path: str | os.PathLike,
        ts: TimeSeriesSet, names: Sequence[str],
    ) -> None:
        """Stage the entry ``load_csv(path, names)`` will look for, for a
        record whose CSV ``write_csv`` just wrote to ``written_path`` (moved
        to ``path`` later), keyed by that file's bytes without parsing them:
        each value is written as its ``repr``, which parses back to the same
        double."""
        if not names or not set(names) <= set(ts.names):
            return  # such a load fails before it looks for an entry
        cols = [ts.names.index(name) for name in names]
        if cols == list(range(cols[0], cols[-1] + 1)):
            data = ts.data[cols[0] : cols[-1] + 1]  # a view: the record is not copied
        else:
            data = ts.data[cols]
        self._stage(self._entry(path, cols), _content_key(written_path, cols), data)

    def _stage(self, entry: str, key: np.ndarray, data: np.ndarray) -> None:
        temp = os.path.join(self.directory, f".{os.path.basename(entry)}.{os.getpid()}.tmp")
        try:
            with open(temp, "wb") as f:
                np.save(f, np.append(key, data.shape[1]))
                np.save(f, data)
        except OSError:
            _remove(temp)
            return
        self._staged[entry] = temp

    def commit(self) -> None:
        """Write the entries of this command's parses, and move every staged
        entry into its place."""
        for entry, (key, data) in self._parsed.items():
            self._stage(entry, key, data)
        self._parsed.clear()
        for entry, temp in self._staged.items():
            try:
                os.replace(temp, entry)
            except OSError:  # e.g. a directory in the entry's place
                _remove(temp)
        self._staged.clear()

    def discard(self) -> None:
        """Forget this command's parses and remove its staged entries."""
        for temp in self._staged.values():
            _remove(temp)
        self._parsed.clear()
        self._staged.clear()


def _content_key(path: str | os.PathLike, cols: list[int]) -> np.ndarray:
    """The parse-cache key of columns ``cols`` of the CSV at ``path``:
    format, the file's byte length and CRC-32 (read in blocks of
    GUARD_BLOCK_BYTES), and the column indices."""
    size = crc = 0
    with open(path, "rb") as f:
        while block := f.read(GUARD_BLOCK_BYTES):
            size += len(block)
            crc = zlib.crc32(block, crc)
    return np.array([PARSE_CACHE_VERSION, size, crc, *cols], dtype=np.int64)


def _remove(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


def write_table(
    path: str | os.PathLike, header: list[str], columns: list, format_line: str | None = None
) -> None:
    """Write equal-length columns as CSV rows under a header line, after a
    ``# format: <format_line>`` line when one is given.  Every CSV artifact
    is written here, as UTF-8: a float array's values as their shortest
    round-trip ``repr`` and a NaN as an empty cell, an integer array's
    values in decimal, a ``LabelColumn``'s label per code, and the cells of
    any other array or sequence with ``str``.  Header cells and columns of
    different counts, a column of another length and a label holding a NUL
    are each a DataError, raised before the file is opened.  The rows are
    made as bytes a chunk (WRITE_CHUNK_FLOATS floats) at a time.
    """
    from .tabletext import chunk_bytes, table_column

    if len(header) != len(columns):
        raise DataError(f"{path}: the header names {len(header)} columns, the table has {len(columns)}")
    n_rows = len(columns[0]) if columns else 0
    for name, col in zip(header, columns):
        if len(col) != n_rows:
            raise DataError(f"{path}: column {name!r} has {len(col)} rows, not {n_rows}")
    columns = [table_column(path, col) for col in columns]
    floats = sum(isinstance(col, np.ndarray) and col.dtype.kind == "f" for col in columns)
    rows = max(WRITE_CHUNK_FLOATS // max(floats, 1), 1)
    head = ",".join(header) + "\n"
    if format_line is not None:
        head = f"# format: {format_line}\n{head}"
    with open(path, "wb") as f:
        f.write(head.encode())
        for lo in range(0, n_rows, rows):
            f.write(chunk_bytes(columns, lo, lo + rows))


def write_csv(
    ts: TimeSeriesSet,
    path: str | os.PathLike,
    true_labels: Sequence[str] | LabelColumn | None = None,
) -> None:
    """Write a record as CSV: one column per channel, in ``names`` order,
    then, when ``true_labels`` are given, a ``true_label`` column of one
    label per sample, as labels or as a ``LabelColumn`` of codes.  Rewriting
    the same record is byte-identical.
    """
    header, columns = list(ts.names), list(ts.data)
    if true_labels is not None:
        header.append("true_label")
        columns.append(true_labels)
    write_table(path, header, columns)


def detrend_mean(ts: TimeSeriesSet) -> TimeSeriesSet:
    """Remove the per-channel sample mean. Idempotent."""
    data = ts.data - ts.data.mean(axis=1, keepdims=True)
    # a large common offset leaves a residue of order eps*offset; mop it up
    # so the result is zero-mean at its own amplitude scale
    data -= data.mean(axis=1, keepdims=True)
    return replace(ts, data=data)


def lag_rows(m: int, order: int) -> int:
    """Rows of the lag matrix of an ``m``-sample record: ``m - order``."""
    if order < 0:
        raise DataError(f"order must be non-negative, got {order}")
    if m <= order:
        raise DataError(f"insufficient samples for order {order}: need > {order}, got {m}")
    return m - order


def lag_matrix(y_i: np.ndarray, order: int) -> np.ndarray:
    """Stack lags 0..order of all input channels row-wise per time step.

    Row t (t = order..M-1, 0-based) is [y(t)', y(t-1)', ..., y(t-order)'],
    one block of all channels per lag.  The matrix is in Fortran order when
    a lag spans several channels, as ``np.hstack`` of the per-lag blocks
    gave it; the rounding of BLAS products with the matrix depends on it.
    """
    y_i = np.atleast_2d(np.asarray(y_i, dtype=float))
    n_i, m = y_i.shape
    rows = lag_rows(m, order)
    out = np.empty((rows, n_i * (order + 1)), order="F" if n_i > 1 else "C")
    blocks = [y_i[:, order - k : m - k].T for k in range(order + 1)]
    return np.concatenate(blocks, axis=1, out=out)


def build_regressor(y_i: np.ndarray, y_target: np.ndarray, order: int) -> RegressionMatrices:
    """Form the FIR regression pair (design matrix, aligned targets).

    The first ``order`` samples are burn-in and produce no rows, so the
    result has M - order rows.
    """
    y_i = np.atleast_2d(np.asarray(y_i, dtype=float))
    y_target = np.asarray(y_target, dtype=float).ravel()
    if y_target.shape[0] != y_i.shape[1]:
        raise DataError(
            f"target length {y_target.shape[0]} does not match input length {y_i.shape[1]}"
        )
    return RegressionMatrices(phi=lag_matrix(y_i, order), y=y_target[order:])


def signal_power(ts: TimeSeriesSet) -> dict[str, float]:
    """Mean-square power per channel; aids choosing the auxiliary output."""
    return {n: float(np.mean(ts.channel(n) ** 2)) for n in ts.names}
