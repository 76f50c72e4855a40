import warnings
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transched import dataset
from transched.dataset import (
    Decomposition,
    PSEUDO_INPUT,
    TARGET_OUTPUT,
    TimeSeriesSet,
    build_regressor,
    detrend_mean,
    lag_matrix,
    load_csv,
    signal_power,
    write_csv,
)
from transched.errors import DataError

SCHEMA3 = {"a": PSEUDO_INPUT, "b": PSEUDO_INPUT, "f": TARGET_OUTPUT}
_ROLES3 = (PSEUDO_INPUT, PSEUDO_INPUT, TARGET_OUTPUT)


def _ts(data, roles=None, names=None, **kw):
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n = data.shape[0]
    names = names or tuple(f"ch{i}" for i in range(n))
    roles = roles or tuple([PSEUDO_INPUT] * n)
    return TimeSeriesSet(sample_rate=10.0, names=names, roles=roles, data=data, **kw)


# ---------------------------------------------------------------- load_csv


def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,f\n1,2,3\n4,5,6\n7,8,9\n10,11,12\n")
    ts = load_csv(p, SCHEMA3, sample_rate=10.0)
    assert ts.n_samples == 4
    assert ts.pseudo_input_names == ("a", "b")
    assert ts.target_name == "f"
    np.testing.assert_array_equal(ts.channel("a"), [1, 4, 7, 10])
    np.testing.assert_array_equal(ts.target(), [3, 6, 9, 12])


def test_load_csv_extra_columns_ignored(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,a,b,f,true_label\n0.0,1,2,3,C1\n0.1,4,5,6,C1\n")
    ts = load_csv(p, SCHEMA3)
    assert ts.names == ("a", "b", "f")
    np.testing.assert_array_equal(ts.channel("b"), [2, 5])


def test_load_csv_ragged_row_names_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,f\n1,2,3\n4,5\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(p, SCHEMA3)


def test_load_csv_empty_data(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,f\n")
    with pytest.raises(DataError, match="no samples"):
        load_csv(p, SCHEMA3)


def test_load_csv_non_numeric_cell(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,f\n1,oops,3\n")
    with pytest.raises(DataError, match="non-numeric"):
        load_csv(p, SCHEMA3)


def test_load_csv_non_finite_names_line_and_channel(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,f\n1,2,3\n\n4,inf,nan\n")  # blank line 3 is skipped
    with pytest.raises(DataError, match=r"d\.csv: line 4: non-finite value inf in channel 'b'"):
        load_csv(p, SCHEMA3)


def test_load_csv_non_finite_in_ignored_column_is_fine(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("time,a,b,f\nnan,1,2,3\n")
    assert load_csv(p, SCHEMA3).n_samples == 1


def test_load_csv_unknown_channel(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="unknown channel"):
        load_csv(p, SCHEMA3)


def test_load_csv_empty_schema(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match=r"d\.csv: the schema names no channel to read"):
        load_csv(p, {})


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_csv(tmp_path / "absent.csv", SCHEMA3)


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    ts = _ts(rng.normal(size=(3, 17)), roles=(PSEUDO_INPUT, PSEUDO_INPUT, TARGET_OUTPUT),
             names=("a", "b", "f"))
    p = tmp_path / "d.csv"
    write_csv(ts, p)
    back = load_csv(p, SCHEMA3, sample_rate=10.0)
    np.testing.assert_array_equal(back.data, ts.data)
    write_csv(back, tmp_path / "d2.csv")
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()


# Text written by the writer before the shared table writer, which must
# keep it: shortest round-trip floats, and labels cut across chunks.
PINNED_CSV = """\
a,b,f,true_label
0.1,0.3333333333333333,3.0,C1
-2.5,5e-324,123456.789,C1
1e+20,-1e-07,-7.25,C2
-0.0,2.0,1.7976931348623157e+308,C10
42.0,1e+16,0.0,C2
"""


@pytest.mark.parametrize("chunk_rows", [dataset.WRITE_CHUNK_ROWS, 3])
def test_write_csv_reproduces_pinned_text(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(dataset, "WRITE_CHUNK_ROWS", chunk_rows)
    ts = _ts([[0.1, -2.5, 1e20, -0.0, 42.0], [1.0 / 3.0, 5e-324, -1e-07, 2.0, 1e16],
              [3.0, 123456.789, -7.25, 1.7976931348623157e308, 0.0]],
             names=("a", "b", "f"), roles=(PSEUDO_INPUT, PSEUDO_INPUT, TARGET_OUTPUT),
             sample_labels=("C1", "C1", "C2", "C10", "C2"))
    write_csv(ts, tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_text() == PINNED_CSV


def test_write_table_returns_size_and_crc_of_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "WRITE_CHUNK_ROWS", 4)
    rng = np.random.default_rng(3)
    values = rng.normal(size=11)
    values[[0, 5, 10]] = np.nan  # empty cells, in the first, a middle and the last chunk
    p = tmp_path / "t.csv"
    written = dataset.write_table(
        p, ["sample", "y_Ö", "Kraft µN"], [np.arange(11), values, ["ä"] * 11],
        format_line="test-table v1",
    )
    data = p.read_bytes()
    assert data.decode("utf-8").splitlines()[1] == "sample,y_Ö,Kraft µN"
    assert written == (len(data), zlib.crc32(data))


def test_load_csv_duplicate_schema_channel(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,a,f\n1,2,3,4\n")
    with pytest.raises(DataError, match=r"d\.csv: channel 'a' appears 2 times in the header"):
        load_csv(p, SCHEMA3)


def test_load_csv_duplicate_unused_column_is_fine(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("t,a,b,f,t\n0,1,2,3,0\n")
    np.testing.assert_array_equal(load_csv(p, SCHEMA3).data, [[1], [2], [3]])


def test_load_csv_quoted_and_crlf_files_are_read(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b'"a",b,f,"x,y"\r\n1,2,3,"C,1"\r\n4,5,6,C2\r\n')
    np.testing.assert_array_equal(load_csv(p, SCHEMA3).data, [[1, 4], [2, 5], [3, 6]])


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    rng = np.random.default_rng(4)
    ts = _ts(rng.normal(size=(3, 40)), roles=_ROLES3, names=("a", "b", "f"),
             sample_labels=("C1",) * 40)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_csv(ts, plain)
    # as a spreadsheet saves "CSV UTF-8": a byte order mark, then CRLF line ends
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
    assert dataset.read_csv_header(marked) == ["a", "b", "f", "true_label"]
    assert load_csv(marked, SCHEMA3).data.tobytes() == load_csv(plain, SCHEMA3).data.tobytes()


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("a,b,f,true_label\n1.5,-2e-07,3,C1\n\n4,5,6,C2", [[1.5, 4], [-2e-07, 5], [3, 6]]),
        ("a,b,f\n", "d.csv: no samples"),
        ("a,b,f\n1,2,3,\n", "d.csv: line 2: expected 3 columns, found 4"),  # trailing comma
        ("a,b,f\n1,2\n", "d.csv: line 2: expected 3 columns, found 2"),  # ragged
        ("a,b,f\r\n1,2,3\r\n", [[1], [2], [3]]),  # CRLF
        ('a,b,f\n1,2,"3"\n', [[1], [2], [3]]),  # quoted
        ("a,b,f\n1, 2,3\n", [[1], [2], [3]]),  # whitespace to strip
        ("a,b,f\n1,2,3\n   \n", "d.csv: line 3: expected 3 columns, found 1"),
        ("a\n1\n   \n", "d.csv: line 3: non-numeric value '' in channel 'a'"),
        ('t,u,a,b,f\n"0,C1",1,2,3\n', "d.csv: line 2: expected 5 columns, found 4"),
        # a quoted newline ends record 1 on line 3, so record 2 is on line 4
        ('a,b,f\n"1\n",2,3\n4,x,6\n', "d.csv: line 4: non-numeric value 'x' in channel 'b'"),
        ('a,b,f\n"1\n",2,3\n4,inf,6\n', "d.csv: line 4: non-finite value inf in channel 'b'"),
    ],
    ids=["plain", "header-only", "trailing-comma", "ragged", "crlf", "quoted", "spaces",
         "whitespace-line", "whitespace-line-one-column", "quoted-comma",
         "quoted-newline-non-numeric", "quoted-newline-non-finite"],
)
def test_load_csv_outcome(tmp_path, text, outcome):
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    header = dataset.read_csv_header(p)
    schema = {name: role for name, role in SCHEMA3.items() if name in header}
    if isinstance(outcome, str):
        with pytest.raises(DataError) as e:
            load_csv(p, schema)
        assert str(e.value) == f"{tmp_path}/{outcome}"
    else:
        assert load_csv(p, schema).data.tobytes() == np.array(outcome, dtype=float).tobytes()


def test_load_csv_ragged_last_line_of_a_long_file(tmp_path):
    rng = np.random.default_rng(3)
    ts = _ts(rng.normal(size=(3, 6000)), roles=_ROLES3, names=("a", "b", "f"))
    p = tmp_path / "d.csv"
    write_csv(ts, p)
    assert load_csv(p, SCHEMA3).data.tobytes() == ts.data.tobytes()
    with p.open("a") as f:
        f.write("1,2\n")
    with pytest.raises(DataError, match=r"d\.csv: line 6002: expected 3 columns, found 2$"):
        load_csv(p, SCHEMA3)


# A plain file holds numbers, plain labels and empty lines only; any other
# file may also hold what a reader must reject or treat specially.
_PLAIN_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
_ODD_NUMBER = st.sampled_from(
    ["", "x", "1_000", "nan", "-inf", "inf", "1e999", "+.5", " 2.5 ", "#", '"7"', "\u00e9"]
)
_PLAIN_LABEL = st.sampled_from(["C1", "C2"])
_ODD_LABEL = st.sampled_from(['"C,1"', "", "la bel", "\u00e9"])


@st.composite
def _csv_texts(draw):
    odd = draw(st.booleans())
    extra = ("time", "true_label") + (('"x,y"', "a") if odd else ())  # "a" is a duplicate
    columns = draw(st.permutations(
        list(SCHEMA3) + draw(st.lists(st.sampled_from(extra), max_size=3, unique=True))
    ))
    kinds = ["row"] * 8 + ["blank"]
    if odd:
        kinds += ["spaces", "comment", "ragged", "trailing comma", "joined", "odd row", "odd row"]
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("blank", "spaces", "comment"):
            lines.append({"blank": "", "spaces": "  ", "comment": "# note"}[kind])
            continue
        number, label = _PLAIN_NUMBER, _PLAIN_LABEL
        if kind == "odd row":
            number, label = st.one_of(_PLAIN_NUMBER, _ODD_NUMBER), _ODD_LABEL
        cells = [draw(label if c in ("true_label", '"x,y"') else number) for c in columns]
        if kind == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        elif kind == "joined":  # one quoted cell holding the comma between two
            i = draw(st.integers(0, len(cells) - 2))
            cells[i : i + 2] = [f'"{cells[i]},{cells[i + 1]}"']
        elif kind == "trailing comma":
            cells.append("")
        lines.append(",".join(cells))
    eol = draw(st.sampled_from(["\n", "\r\n"])) if odd else "\n"
    return odd, eol.join(lines) + draw(st.sampled_from([eol, ""]))


@settings(max_examples=300, deadline=None)
@given(case=_csv_texts())
def test_load_csv_matches_numpy_reader(tmp_path_factory, case):
    odd, text = case
    p = tmp_path_factory.getbasetemp() / "fuzz.csv"
    p.write_bytes(text.encode())
    try:
        data = load_csv(p, SCHEMA3).data
    except DataError as e:  # any other exception fails the test
        assert str(e).startswith(f"{p}: ")
        data = None
    if odd:
        return
    # a plain file: numpy's C reader, with no quoting or comments, is the oracle
    header = text.split("\n", 1)[0].split(",")
    with open(p) as f, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on a file without data lines
        table = np.loadtxt(
            f, delimiter=",", skiprows=1, usecols=[header.index(n) for n in SCHEMA3],
            ndmin=2, comments=None, quotechar=None,
        ).T
    if table.shape[1] == 0:
        assert data is None
    else:
        assert data.shape == table.shape and data.tobytes() == table.tobytes()


# ------------------------------------------------------------- parse cache

# -0.0, subnormals, the smallest normal and values near the largest double
_EDGE_DOUBLES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
                 1.7976931348623157e308]
_DOUBLES = st.one_of(st.sampled_from(_EDGE_DOUBLES),
                     st.floats(allow_nan=False, allow_infinity=False))


def _no_parse():
    """Fail any parse of a CSV: a load under this is served by the cache."""
    fail = mock.Mock(side_effect=AssertionError("parsed, not read from the cache"))
    return mock.patch.object(dataset, "_load_rows", fail)


def _entries(directory):
    return {p.name: p.read_bytes() for p in directory.glob(".parse-cache-*.npy")}


@settings(max_examples=60, deadline=None)
@given(
    values=st.integers(1, 20).flatmap(lambda n: st.lists(_DOUBLES, min_size=3 * n,
                                                         max_size=3 * n)),
    spaced=st.booleans(),
)
def test_parse_cache_hit_equals_parse_bit_for_bit(tmp_path_factory, values, spaced):
    data = np.array(values).reshape(3, -1)
    label = "C 1" if spaced else "C1"
    ts = _ts(data, names=("a", "b", "f"), roles=_ROLES3,
             sample_labels=(label,) * data.shape[1])
    root = tmp_path_factory.mktemp("cache")
    p = root / "d.csv"
    written = write_csv(ts, p)
    parsed = load_csv(p, SCHEMA3).data
    assert parsed.tobytes() == data.tobytes()
    # one entry staged from the record as simulate writes it, one kept by a parse
    seeded, kept = root / "seeded", root / "kept"
    seeded.mkdir(), kept.mkdir()
    cache = dataset.ParseCache(seeded)
    cache.add_written(p, written, ts, SCHEMA3)
    cache.commit()
    cache = dataset.ParseCache(kept)
    assert load_csv(p, SCHEMA3, cache=cache).data.tobytes() == parsed.tobytes()
    cache.commit()
    assert _entries(seeded) == _entries(kept) and len(_entries(kept)) == 1
    with _no_parse():
        hit = load_csv(p, SCHEMA3, cache=dataset.ParseCache(kept)).data
    assert hit.tobytes() == parsed.tobytes() and hit.flags.c_contiguous


def _cached_csv(tmp_path):
    """A CSV with its committed entry: (csv path, entry path, parsed data)."""
    rng = np.random.default_rng(8)
    p = tmp_path / "d.csv"
    write_csv(_ts(rng.normal(size=(3, 50)), names=("a", "b", "f"), roles=_ROLES3), p)
    cache = dataset.ParseCache(tmp_path)
    data = load_csv(p, SCHEMA3, cache=cache).data
    cache.commit()
    (entry,) = tmp_path.glob(".parse-cache-*.npy")
    return p, entry, data


def _rewrite_entry(transform):
    """Damage an entry by rewriting its array record through ``transform``,
    or by dropping it when ``transform`` is None."""

    def damage(entry):
        with entry.open("rb") as f:
            head, data = np.load(f), np.load(f)
        with entry.open("wb") as f:
            np.save(f, head)
            if transform is not None:
                np.save(f, transform(data))

    return damage


@pytest.mark.parametrize(
    "damage",
    [
        lambda e: e.write_bytes(e.read_bytes()[: e.stat().st_size // 2]),
        lambda e: e.write_bytes(b""),
        _rewrite_entry(None),
        _rewrite_entry(lambda d: d[:2]),
        _rewrite_entry(lambda d: d[:, :-1]),
        _rewrite_entry(lambda d: d.ravel()),
        _rewrite_entry(lambda d: d.astype(np.float32)),
        _rewrite_entry(lambda d: np.asfortranarray(d)),
        _rewrite_entry(lambda d: np.where(np.arange(d.shape[1]) == 7, np.nan, d)),
        lambda e: np.save(e, np.array([{"pickled": 1}], dtype=object), allow_pickle=True),
        lambda e: (e.unlink(), e.mkdir()),
    ],
    ids=["truncated", "empty", "key-only", "fewer-channels", "fewer-samples", "flat",
         "float32", "fortran-order", "non-finite", "pickled-object", "directory"],
)
def test_parse_cache_bad_entry_is_a_miss(tmp_path, damage):
    p, entry, data = _cached_csv(tmp_path)
    good = entry.read_bytes()
    damage(entry)
    cache = dataset.ParseCache(tmp_path)
    with mock.patch.object(dataset, "_load_rows", wraps=dataset._load_rows) as parse:
        again = load_csv(p, SCHEMA3, cache=cache).data
    assert parse.call_count == 1 and again.tobytes() == data.tobytes()
    cache.commit()  # the new parse replaces the bad entry; a directory stays
    if entry.is_dir():
        assert sorted(p.name for p in tmp_path.iterdir()) == [entry.name, "d.csv"]
    else:
        assert entry.read_bytes() == good


def test_parse_cache_misses_an_edit_of_the_same_length(tmp_path):
    p, entry, data = _cached_csv(tmp_path)
    text = p.read_text()
    i = text.index("\n") + 3  # a digit of the first data row's first cell
    edited = text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]
    p.write_text(edited)
    assert len(edited) == len(text)
    cache = dataset.ParseCache(tmp_path)
    got = load_csv(p, SCHEMA3, cache=cache).data
    assert got.tobytes() == load_csv(p, SCHEMA3).data.tobytes() != data.tobytes()
    cache.commit()
    assert list(_entries(tmp_path)) == [entry.name]  # replaced, not added
    with _no_parse():
        assert load_csv(p, SCHEMA3, cache=dataset.ParseCache(tmp_path)).data.tobytes() \
            == got.tobytes()


def test_parse_cache_entry_per_column_selection(tmp_path):
    p, entry, data = _cached_csv(tmp_path)
    two = {"f": TARGET_OUTPUT, "a": PSEUDO_INPUT}
    cache = dataset.ParseCache(tmp_path)
    assert load_csv(p, two, cache=cache).data.tobytes() == data[[2, 0]].tobytes()
    cache.commit()
    assert len(_entries(tmp_path)) == 2
    with _no_parse():
        assert load_csv(p, two, cache=dataset.ParseCache(tmp_path)).data.tobytes() \
            == data[[2, 0]].tobytes()
        assert load_csv(p, SCHEMA3, cache=dataset.ParseCache(tmp_path)).data.tobytes() \
            == data.tobytes()


def test_parse_cache_add_written_selects_the_schema_columns(tmp_path):
    rng = np.random.default_rng(9)
    ts = _ts(rng.normal(size=(3, 20)), names=("a", "b", "f"), roles=_ROLES3)
    p = tmp_path / "d.csv"
    written = write_csv(ts, p)
    cache = dataset.ParseCache(tmp_path)
    cache.add_written(p, written, ts, {"f": TARGET_OUTPUT, "a": PSEUDO_INPUT})
    cache.add_written(p, written, ts, {"b": PSEUDO_INPUT, "f": TARGET_OUTPUT})
    cache.add_written(p, written, ts, {"a": PSEUDO_INPUT, "x": TARGET_OUTPUT})  # no such column
    cache.commit()
    assert len(_entries(tmp_path)) == 2
    with _no_parse():
        for schema in ({"f": TARGET_OUTPUT, "a": PSEUDO_INPUT},
                       {"b": PSEUDO_INPUT, "f": TARGET_OUTPUT}):
            hit = load_csv(p, schema, cache=dataset.ParseCache(tmp_path)).data
            assert hit.tobytes() == ts.data[[list(ts.names).index(n) for n in schema]].tobytes()


def test_parse_cache_discard_and_missing_directory(tmp_path):
    p, entry, data = _cached_csv(tmp_path)
    entry.unlink()
    cache = dataset.ParseCache(tmp_path)
    written = (p.stat().st_size, zlib.crc32(p.read_bytes()))
    cache.add_written(p, written, load_csv(p, SCHEMA3), SCHEMA3)  # staged beside its place
    assert len(list(tmp_path.glob(".*.tmp"))) == 1
    cache.discard()
    cache.commit()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]
    cache = dataset.ParseCache(tmp_path / "absent")  # entries cannot be written: dropped
    load_csv(p, SCHEMA3, cache=cache)
    cache.commit()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


# ------------------------------------------------------------ detrend_mean


def test_detrend_constant_channel():
    out = detrend_mean(_ts([[1.0, 1.0, 1.0]]))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 0.0]])


def test_detrend_arithmetic():
    out = detrend_mean(_ts([[1.0, 2.0, 3.0]]))
    np.testing.assert_array_equal(out.data, [[-1.0, 0.0, 1.0]])


def test_detrend_zero_mean_unchanged():
    x = np.array([[1.0, -2.0, 1.0]])
    out = detrend_mean(_ts(x))
    np.testing.assert_allclose(out.data, x, atol=1e-12)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_detrend_idempotent(values):
    once = detrend_mean(_ts([values]))
    twice = detrend_mean(once)
    scale = max(1.0, float(np.max(np.abs(once.data))))
    np.testing.assert_allclose(twice.data, once.data, atol=1e-12 * scale)
    assert abs(float(once.data.mean())) <= 1e-12 * max(1.0, max(map(abs, values)))


# --------------------------------------------------------- build_regressor


def test_regressor_scalar_order_one():
    m = build_regressor([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0], 1)
    np.testing.assert_array_equal(m.phi, [[2, 1], [3, 2], [4, 3]])
    np.testing.assert_array_equal(m.y, [20, 30, 40])
    assert m.n_rows == 3 and m.n_params == 2


def test_regressor_order_zero():
    y_i = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    m = build_regressor(y_i, [0.0, 0.0, 0.0], 0)
    np.testing.assert_array_equal(m.phi, y_i.T)


def test_regressor_column_count_seven_inputs_order_fifty():
    # n_I * (n + 1) columns: 7 inputs at order 50 give 357
    rng = np.random.default_rng(0)
    y_i = rng.normal(size=(7, 60))
    m = build_regressor(y_i, rng.normal(size=60), 50)
    assert m.phi.shape == (10, 357)
    assert m.n_params == 7 * 51


def test_regressor_insufficient_samples():
    with pytest.raises(DataError, match="insufficient samples"):
        build_regressor([1.0, 2.0], [1.0, 2.0], 2)


def test_regressor_lag_blocks_recover_shifted_channels():
    rng = np.random.default_rng(1)
    n_i, m_len, order = 3, 40, 4
    y_i = rng.normal(size=(n_i, m_len))
    m = build_regressor(y_i, rng.normal(size=m_len), order)
    for lag in range(order + 1):
        block = m.phi[:, lag * n_i : (lag + 1) * n_i]
        np.testing.assert_array_equal(block, y_i[:, order - lag : m_len - lag].T)


@pytest.mark.parametrize("n_i", [1, 2, 3])
@pytest.mark.parametrize("order", [0, 3])
def test_lag_matrix_keeps_the_layout_of_hstack(n_i, order):
    # BLAS products round by memory layout; the per-lag hstack set it first
    y_i = np.random.default_rng(n_i).normal(size=(n_i, 50))
    ref = np.hstack([y_i[:, order - k : 50 - k].T for k in range(order + 1)])
    phi = lag_matrix(y_i, order)
    np.testing.assert_array_equal(phi, ref)
    assert (phi.flags.c_contiguous, phi.flags.f_contiguous) == (
        ref.flags.c_contiguous, ref.flags.f_contiguous)


def test_lag_matrix_rejects_negative_order():
    with pytest.raises(DataError, match="order must be non-negative"):
        lag_matrix([1.0, 2.0], -1)


# ----------------------------------------------------------- decomposition


def test_decompose_selects_channel():
    ts = _ts(np.arange(12.0).reshape(3, 4), names=("a", "b", "c"))
    drivers, aux = Decomposition(aux_output_index=2).split(ts.pseudo_input_names)
    assert (drivers, aux) == (["a", "b"], "c")
    np.testing.assert_array_equal(ts.channel(aux), np.arange(8.0, 12.0))
    np.testing.assert_array_equal(ts.channels(drivers), np.arange(8.0).reshape(2, 4))


def test_decompose_two_channels():
    ts = _ts(np.arange(8.0).reshape(2, 4), names=("a", "b"))
    drivers, aux = Decomposition(aux_output_index=1).split(ts.pseudo_input_names)
    assert aux == "b"
    assert ts.channels(drivers).shape == (1, 4)
    np.testing.assert_array_equal(ts.channels(drivers)[0], ts.channel("a"))


def test_decompose_single_channel_impossible():
    ts = _ts(np.arange(4.0).reshape(1, 4))
    with pytest.raises(DataError, match="at least 2 pseudo-input"):
        Decomposition(aux_output_index=0).split(ts.pseudo_input_names)


def test_decompose_index_out_of_range():
    ts = _ts(np.arange(8.0).reshape(2, 4))
    with pytest.raises(DataError, match="out of range"):
        Decomposition(aux_output_index=5).split(ts.pseudo_input_names)


# ------------------------------------------------------------ other pieces


def test_signal_power():
    ts = _ts([[1.0, -1.0, 1.0, -1.0], [2.0, 2.0, 2.0, 2.0]], names=("u", "v"))
    powers = signal_power(ts)
    assert powers == {"u": 1.0, "v": 4.0}


def test_timeseries_invariants():
    with pytest.raises(DataError, match="sample_rate"):
        _ts([[1.0]]).__class__(sample_rate=0.0, names=("a",), roles=(PSEUDO_INPUT,),
                               data=np.ones((1, 1)))
    with pytest.raises(DataError, match="unique"):
        TimeSeriesSet(sample_rate=1.0, names=("a", "a"),
                      roles=(PSEUDO_INPUT, PSEUDO_INPUT), data=np.ones((2, 3)))
    with pytest.raises(DataError, match="target_output"):
        TimeSeriesSet(sample_rate=1.0, names=("a", "b"),
                      roles=(TARGET_OUTPUT, TARGET_OUTPUT), data=np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_timeseries_rejects_non_finite(bad):
    data = np.ones((2, 4))
    data[1, 2] = bad
    with pytest.raises(DataError, match="non-finite value .* at sample 2 in channel 'ch1'"):
        _ts(data)


def test_timeseries_data_read_only():
    ts = _ts([[1.0, 2.0]])
    with pytest.raises(ValueError):
        ts.data[0, 0] = 5.0
