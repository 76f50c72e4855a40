import json
import tracemalloc

import numpy as np
import pytest

from transched.dataset import (
    Decomposition,
    PSEUDO_INPUT,
    TARGET_OUTPUT,
    RegressionMatrices,
    TimeSeriesSet,
    build_regressor,
    lag_matrix,
)
from transched.errors import ConfigError, DataError
from transched.evaluation import fit_metric
from transched.regression import ridge_fit
from transched.transmissibility import (
    FirModel,
    TransmissibilityFamily,
    fit_average,
    fit_fir,
    load_store,
    predict,
    predict_record,
    save_store,
    train_families,
)

from conftest import make_training_record


def _record(data, names, target="f", label=None):
    roles = tuple(TARGET_OUTPUT if n == target else PSEUDO_INPUT for n in names)
    return TimeSeriesSet(sample_rate=10.0, names=tuple(names), roles=roles,
                         data=np.asarray(data, dtype=float), condition_label=label)


def _random_record(rng, m_len, label=None):
    # channels of very different scales, so a changed summation order shows
    scale = 10.0 ** rng.uniform(-3, 3, size=(3, 1))
    return _record(scale * rng.normal(size=(3, m_len)), ("a", "b", "f"), label=label)


def _peak_bytes(fn, *args):
    """Peak of the memory traced while ``fn(*args)`` runs; numpy reports its
    array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _passthrough_record(seed=0, m_len=200):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(2, m_len))
    return _record(np.vstack([u, u[0]]), ("a", "b", "f"))


# ------------------------------------------------------------------- fit_fir


def test_fit_passthrough_system():
    ts = _passthrough_record()
    model = fit_fir(ts, ("a", "b"), "f", order=2)
    expected = np.zeros(6)
    expected[0] = 1.0  # b_0 coefficient of channel "a"
    np.testing.assert_allclose(model.theta, expected, atol=1e-8)
    assert model.input_channel_names == ("a", "b")
    assert model.output_channel_name == "f"
    assert model.dof == (200 - 2) - 6


def test_fit_quarter_car_heldout_fit(clean_c1_pair):
    train, heldout = clean_c1_pair
    model = fit_fir(train, train.pseudo_input_names, "y_O", order=10)
    estimate = predict_record(model, heldout)
    fit = fit_metric(heldout.target()[10:], estimate)
    assert fit > 90.0


def test_fit_order_exceeding_record():
    ts = _passthrough_record(m_len=5)
    with pytest.raises(DataError, match="insufficient samples"):
        fit_fir(ts, ("a", "b"), "f", order=10)


# ------------------------------------------------------------------- predict


def test_predict_passthrough_delays():
    ts = _passthrough_record(seed=1)
    model = fit_fir(ts, ("a", "b"), "f", order=2)
    out = predict(model, ts.channels(("a", "b")))
    np.testing.assert_allclose(out, ts.channel("a")[2:], atol=1e-8)


def test_predict_zero_model():
    model = FirModel(order=1, input_dim=2, theta=np.zeros(4), sigma2=0.0)
    out = predict(model, np.random.default_rng(2).normal(size=(2, 30)))
    np.testing.assert_array_equal(out, np.zeros(29))


def test_predict_round_trip_on_training_data():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(2, 300))
    theta = rng.normal(size=6)
    model_true = FirModel(order=2, input_dim=2, theta=theta, sigma2=0.0)
    y = np.zeros(300)
    y[2:] = predict(model_true, u)
    ts = _record(np.vstack([u, y]), ("a", "b", "f"))
    fitted = fit_fir(ts, ("a", "b"), "f", order=2)
    np.testing.assert_allclose(predict(fitted, u), y[2:], atol=1e-8)


def test_predict_channel_count_mismatch():
    model = FirModel(order=1, input_dim=2, theta=np.zeros(4), sigma2=0.0)
    with pytest.raises(DataError, match="input channels"):
        predict(model, np.zeros((3, 10)))


def test_predict_linear_in_theta():
    rng = np.random.default_rng(4)
    u = rng.normal(size=(2, 40))
    t1, t2 = rng.normal(size=4), rng.normal(size=4)
    m = lambda th: FirModel(order=1, input_dim=2, theta=th, sigma2=0.0)
    combo = predict(m(2.0 * t1 + 3.0 * t2), u)
    np.testing.assert_allclose(combo, 2.0 * predict(m(t1), u) + 3.0 * predict(m(t2), u),
                               rtol=1e-12, atol=1e-12)


def _predict_reference(theta, y_i, order):
    """Plain-Python FIR sum: estimate t adds theta[j] * y_i[c, t - k] in theta
    order, with k, c = divmod(j, channels)."""
    n_i, m = y_i.shape
    rows = y_i.tolist()
    out = []
    for t in range(order, m):
        total = 0.0
        for j, coef in enumerate(theta.tolist()):
            k, c = divmod(j, n_i)
            total += coef * rows[c][t - k]
        out.append(total)
    return np.array(out)


def _scaled_channels(rng, n_i, m):
    """Channels whose scales differ by up to 1e+-3."""
    return 10.0 ** rng.uniform(-3, 3, size=(n_i, 1)) * rng.normal(size=(n_i, m))


@pytest.mark.parametrize("n_i", [1, 2, 3])
@pytest.mark.parametrize("order", [0, 1, 7, 30])
def test_predict_is_the_theta_order_sum(n_i, order):
    rng = np.random.default_rng(10 * n_i + order)
    y_i = _scaled_channels(rng, n_i, order + 25)
    model = FirModel(order=order, input_dim=n_i, theta=rng.normal(size=n_i * (order + 1)),
                     sigma2=1.0)
    np.testing.assert_array_equal(predict(model, y_i),
                                  _predict_reference(model.theta, y_i, order))


@pytest.mark.parametrize("n_i", [1, 2, 3])
@pytest.mark.parametrize("order", [0, 9, 30])
def test_predict_agrees_with_the_lag_matrix_product(n_i, order):
    rng = np.random.default_rng(100 + 10 * n_i + order)
    y_i = _scaled_channels(rng, n_i, order + 500)
    p = n_i * (order + 1)
    model = FirModel(order=order, input_dim=n_i, theta=rng.normal(size=p), sigma2=1.0)
    phi = lag_matrix(y_i, order)
    # forward error bound of a p-term dot product, per sample
    bound = 2 * p * np.finfo(float).eps * (np.abs(phi) @ np.abs(model.theta))
    assert np.all(np.abs(predict(model, y_i) - phi @ model.theta) <= bound)


def test_predict_memory_is_two_output_arrays():
    rng = np.random.default_rng(5)
    n_i, order = 3, 30
    y_i = rng.normal(size=(n_i, 40_000))
    model = FirModel(order=order, input_dim=n_i, theta=rng.normal(size=n_i * (order + 1)),
                     sigma2=1.0)
    output = (y_i.shape[1] - order) * 8
    assert _peak_bytes(predict, model, y_i) < 2.5 * output


# ---------------------------------------------------------------- families


def test_train_families_two_conditions(clean_training_pair):
    d = Decomposition(aux_output_index=1)
    g, h = train_families(clean_training_pair, d, order=10)
    assert g.labels == h.labels == ("C1", "C2")
    assert g.kind == "primary" and h.kind == "auxiliary"
    assert g.input_channel_names == ("y_I1_a", "y_I2")
    assert h.input_channel_names == ("y_I1_a",)
    assert h.output_channel_name == "y_I2"
    assert h.decomposition is d


def test_train_families_singleton(clean_c1_pair):
    g, h = train_families([clean_c1_pair[0]], Decomposition(aux_output_index=1), order=5)
    assert len(g) == len(h) == 1


def test_train_families_identical_data_under_two_labels():
    base = _passthrough_record(seed=5, m_len=150)
    import dataclasses

    r1 = dataclasses.replace(base, condition_label="Q1")
    r2 = dataclasses.replace(base, condition_label="Q2")
    _, h = train_families([r1, r2], Decomposition(aux_output_index=1), order=3)
    np.testing.assert_allclose(h.models[0].theta, h.models[1].theta, atol=1e-10)


def test_train_families_duplicate_labels():
    r = _passthrough_record()
    import dataclasses

    recs = [dataclasses.replace(r, condition_label="Q"),
            dataclasses.replace(r, condition_label="Q")]
    with pytest.raises(DataError, match="duplicate"):
        train_families(recs, Decomposition(aux_output_index=0), order=2)


def test_train_families_schema_mismatch():
    import dataclasses

    r1 = dataclasses.replace(_passthrough_record(), condition_label="Q1")
    other = _record(np.zeros((3, 50)) + 1.0, ("x", "b", "f"))
    r2 = dataclasses.replace(other, condition_label="Q2")
    with pytest.raises(DataError, match="schema"):
        train_families([r1, r2], Decomposition(aux_output_index=0), order=2)


def test_train_families_single_pseudo_input():
    r = _record(np.random.default_rng(5).normal(size=(2, 50)), ("a", "f"), label="Q")
    with pytest.raises(DataError, match="at least 2 pseudo-input channels, got 1"):
        train_families([r], Decomposition(aux_output_index=0), order=2)


def test_train_families_order_independent(clean_training_pair):
    d = Decomposition(aux_output_index=1)
    g12, _ = train_families(list(clean_training_pair), d, order=6)
    g21, _ = train_families(list(clean_training_pair)[::-1], d, order=6)
    assert g21.labels == tuple(reversed(g12.labels))
    np.testing.assert_array_equal(g12.member("C1").theta, g21.member("C1").theta)
    np.testing.assert_array_equal(g12.member("C2").theta, g21.member("C2").theta)


def test_auxiliary_family_never_uses_its_own_output(clean_training_pair):
    _, h = train_families(clean_training_pair, Decomposition(aux_output_index=1), order=4)
    assert h.output_channel_name not in h.input_channel_names


# -------------------------------------------------------------- fit_average


def test_fit_average_single_condition_reduces_to_fit_fir(clean_c1_pair):
    # the Gram matrix, right-hand side and residual come from the same
    # lag-matrix products as fit_fir's, so one record gives its fit exactly
    train, _ = clean_c1_pair
    for c_lim in (1.0e6, 1.1):
        single = fit_fir(train, train.pseudo_input_names, "y_O", 8, c_lim)
        avg = fit_average([train], train.pseudo_input_names, "y_O", 8, c_lim)
        np.testing.assert_array_equal(avg.theta, single.theta)
        assert (avg.sigma2, avg.rho, avg.kappa_after, avg.dof) == (
            single.sigma2, single.rho, single.kappa_after, single.dof)
    assert avg.rho > 0.0  # the cap binds at c_lim 1.1


def test_fit_average_duplicate_records_match_single():
    ts = _passthrough_record(seed=6, m_len=400)
    single = fit_fir(ts, ("a", "b"), "f", order=4)
    avg = fit_average([ts, ts], ("a", "b"), "f", order=4)
    assert avg.rho == 0.0 and single.rho == 0.0
    np.testing.assert_allclose(avg.theta, single.theta, atol=1e-10)


def test_fit_average_loses_to_matched_models(quarter_car_systems, clean_training_pair):
    # pooled-data model cannot beat the condition-matched one on either condition
    avg = fit_average(clean_training_pair, ("y_I1_a", "y_I2"), "y_O", order=10)
    for label, ts in zip(("C1", "C2"), clean_training_pair):
        heldout = make_training_record(quarter_car_systems, label, 1000, seed=505)
        matched = fit_fir(ts, ("y_I1_a", "y_I2"), "y_O", order=10)
        fit_matched = fit_metric(heldout.target()[10:], predict_record(matched, heldout))
        fit_avg = fit_metric(heldout.target()[10:], predict_record(avg, heldout))
        assert fit_avg < fit_matched


@pytest.mark.parametrize("inputs", [("a",), ("a", "b")])
@pytest.mark.parametrize("c_lim", [1.0e6, 1.1])
def test_fit_average_equals_fit_of_vstacked_regressions(inputs, c_lim):
    # equal within the bound fit_average states: the summed normal equations
    # round the stacked Gram matrix's sums in another order
    rng = np.random.default_rng(len(inputs))
    order = 6
    records = [_random_record(rng, m_len, label=f"C{i}")
               for i, m_len in enumerate((300, 451, 1000))]
    parts = [build_regressor(ts.channels(inputs), ts.channel("f"), order) for ts in records]
    stacked = RegressionMatrices(
        phi=np.vstack([m.phi for m in parts]),
        y=np.concatenate([m.y for m in parts]),
        order=order,
        input_dim=len(inputs),
    )
    sol = ridge_fit(stacked, c_lim)
    avg = fit_average(records, inputs, "f", order, c_lim)
    e = ((stacked.n_params + np.sqrt(stacked.n_rows)) * np.finfo(float).eps
         * (c_lim + 1.0) / (c_lim - 1.0))
    tol = e * sol.kappa_after
    assert np.linalg.norm(avg.theta - sol.theta) <= tol * np.linalg.norm(sol.theta)
    assert avg.sigma2 == pytest.approx(sol.sigma2, rel=tol)
    assert avg.kappa_after == pytest.approx(sol.kappa_after, rel=tol)
    lambda_max = np.linalg.eigvalsh(stacked.phi.T @ stacked.phi)[-1]
    assert abs(avg.rho - sol.rho) <= e * lambda_max
    assert (avg.rho == 0.0) == (sol.rho == 0.0)  # rho is exactly 0 unless the cap binds
    assert avg.dof == sol.dof == stacked.n_rows - stacked.n_params
    if c_lim == 1.1:
        assert avg.rho > 0.0  # the cap binds


def test_fit_average_fails_hopeless_fit_before_building_any_regression(monkeypatch):
    # 3 records of 6 samples at order 4 give 6 rows for 10 parameters
    def no_build(*args):
        raise AssertionError("a hopeless fit must fail before any lag matrix or Gram")

    monkeypatch.setattr("transched.transmissibility.build_regressor", no_build)
    monkeypatch.setattr("transched.regression._eigh", no_build)
    rng = np.random.default_rng(2)
    records = [_random_record(rng, 6, label=f"C{i}") for i in range(3)]
    with pytest.raises(ConfigError, match="c_lim"):  # a config error comes first
        fit_average(records, ("a", "b"), "f", 4, c_lim=1.0)
    with pytest.raises(DataError, match="insufficient data for variance estimate: 6 rows, 10"):
        fit_average(records, ("a", "b"), "f", 4)


def test_fit_average_memory_stays_flat_as_records_are_added():
    rng = np.random.default_rng(6)
    order, m_len = 30, 5000
    records = [_random_record(rng, m_len, label=f"C{i}") for i in range(8)]
    rows = m_len - order
    one = rows * 2 * (order + 1) * 8 + rows * 8  # one record's lag matrix and targets
    two = _peak_bytes(fit_average, records[:2], ("a", "b"), "f", order)
    eight = _peak_bytes(fit_average, records, ("a", "b"), "f", order)
    assert eight == pytest.approx(two, rel=0.05)
    assert max(two, eight) < 1.25 * one


# -------------------------------------------------------------- model store


def test_store_round_trip_bit_exact(tmp_path, clean_training_pair):
    d = Decomposition(aux_output_index=1)
    g, h = train_families(clean_training_pair, d, order=10)
    avg = fit_average(clean_training_pair, ("y_I1_a", "y_I2"), "y_O", order=10)
    path = tmp_path / "store.json"
    save_store(path, g, h, average=avg, c_lim=1e6)
    g2, h2, avg2 = load_store(path)
    assert g2.labels == g.labels
    for m_in, m_out in zip(g.models + h.models, g2.models + h2.models):
        np.testing.assert_array_equal(m_in.theta, m_out.theta)
        assert m_in.sigma2 == m_out.sigma2
        assert m_in.rho == m_out.rho
        assert m_in.dof == m_out.dof
    np.testing.assert_array_equal(avg2.theta, avg.theta)
    assert h2.decomposition.aux_output_index == 1


def test_store_accepts_numpy_scalars(tmp_path, clean_training_pair):
    # a library caller may take the index from np.argmax
    g, h = train_families(clean_training_pair, Decomposition(aux_output_index=np.int64(1)), order=2)
    save_store(tmp_path / "np.json", g, h, c_lim=np.float64(1e6))
    g1, h1 = train_families(clean_training_pair, Decomposition(aux_output_index=1), order=2)
    save_store(tmp_path / "py.json", g1, h1, c_lim=1e6)
    assert (tmp_path / "np.json").read_bytes() == (tmp_path / "py.json").read_bytes()


def test_store_rejects_non_finite_c_lim(tmp_path, clean_training_pair):
    g, h = train_families(clean_training_pair, Decomposition(aux_output_index=1), order=2)
    path = tmp_path / "store.json"
    with pytest.raises(DataError, match="cannot write model store") as err:
        save_store(path, g, h, c_lim=float("nan"))
    assert str(path) in str(err.value) and not path.exists()


def test_store_rejects_unknown_version(tmp_path):
    path = tmp_path / "store.json"
    path.write_text('{"version": 99}')
    with pytest.raises(DataError, match="version"):
        load_store(path)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # a missing key is covered through cli.main in test_cli
        (lambda doc: doc["conditions"][0]["H"]["theta"].pop(), "theta length"),
        (lambda doc: doc["conditions"][0]["H"].update(sigma2="wide"), "could not convert"),
        (lambda doc: doc["conditions"][0]["G"]["theta"].__setitem__(0, float("nan")), "finite"),
        (lambda doc: doc["conditions"][0]["G"].update(rho=float("nan")), "rho must be finite"),
        (lambda doc: doc["conditions"][1]["H"].update(dof=-5), "dof must be non-negative"),
        (lambda doc: doc.update(conditions=[7]), "malformed model store"),
    ],
)
def test_store_rejects_malformed_schema(tmp_path, clean_training_pair, corrupt, message):
    g, h = train_families(clean_training_pair, Decomposition(aux_output_index=1), order=2)
    path = tmp_path / "store.json"
    save_store(path, g, h)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=message) as err:
        load_store(path)
    assert str(path) in str(err.value)


def test_store_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_store(tmp_path / "nope.json")


# ------------------------------------------------------------------- types


def test_family_label_lookup(clean_training_pair):
    g, _ = train_families(clean_training_pair, Decomposition(aux_output_index=1), order=3)
    assert g.member("C2") is g.models[1]
    with pytest.raises(DataError, match="no family member"):
        g.member("C9")


def test_family_rejects_mixed_layout():
    m1 = FirModel(order=1, input_dim=1, theta=np.zeros(2), sigma2=0.0)
    m2 = FirModel(order=2, input_dim=1, theta=np.zeros(3), sigma2=0.0)
    with pytest.raises(DataError, match="share order"):
        TransmissibilityFamily(kind="primary", labels=("a", "b"), models=(m1, m2))


def test_fir_model_theta_length_checked():
    with pytest.raises(DataError, match="theta length"):
        FirModel(order=2, input_dim=2, theta=np.zeros(5), sigma2=0.0)
