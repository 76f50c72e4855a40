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


@pytest.mark.parametrize(
    "text, plain",
    [
        ("a,b,f,true_label\n1.5,-2e-07,3,C1\n\n4,5,6,C2", True),
        ("a,b,f\n", False),  # header only
        ("a,b,f\n1,2,3,\n", False),  # trailing comma
        ("a,b,f\n1,2\n", False),  # ragged
        ("a,b,f\r\n1,2,3\r\n", False),  # CRLF
        ('a,b,f\n1,2,"3"\n', False),  # quoted
        ("a,b,f\n1, 2,3\n", False),  # whitespace to strip
        ("a,b,f\n1,2,3\n   \n", False),  # whitespace-only line
        ("a\n1\n   \n", False),  # whitespace-only line where no comma is due
        ('t,u,a,b,f\n"0,C1",1,2,3\n', False),  # a quoted comma
    ],
)
def test_plain_table_guard(tmp_path, text, plain):
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode())
    assert dataset._plain_table(p, len(dataset.read_csv_header(p))) is plain


def test_plain_table_guard_crosses_blocks(tmp_path):
    rng = np.random.default_rng(3)
    ts = _ts(rng.normal(size=(3, 6000)), roles=(PSEUDO_INPUT, PSEUDO_INPUT, TARGET_OUTPUT),
             names=("a", "b", "f"))
    p = tmp_path / "d.csv"
    write_csv(ts, p)
    assert p.stat().st_size > 3 * dataset.GUARD_BLOCK_BYTES
    assert dataset._plain_table(p, 3)
    with p.open("a") as f:
        f.write("1,2\n")  # a ragged last line
    assert not dataset._plain_table(p, 3)


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
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


def _outcome(path):
    try:
        data = load_csv(path, SCHEMA3).data
    except DataError as e:
        return "error", str(e)
    return "data", data.shape, data.tobytes()


@settings(max_examples=300, deadline=None)
@given(text=_csv_texts())
def test_load_csv_fast_path_matches_csv_module(tmp_path_factory, text):
    p = tmp_path_factory.getbasetemp() / "fuzz.csv"
    p.write_bytes(text.encode())
    with mock.patch.object(dataset, "_plain_table", return_value=False):
        reference = _outcome(p)
    assert _outcome(p) == reference


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
