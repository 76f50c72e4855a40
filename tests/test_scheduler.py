import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transched import dataset
from transched.dataset import Decomposition, PSEUDO_INPUT, TARGET_OUTPUT, TimeSeriesSet
from transched.errors import ConfigError, DataError, NumericalError
from transched.evaluation import fit_metric
from transched.scheduler import (
    AMBIGUITY_NATS,
    _posterior_rows,
    Prior,
    classify,
    log_evidence,
    pooled_sigma2,
    ScheduleTrace,
    schedule_estimate,
    window_rss,
    write_sample_trace,
    write_window_trace,
)
from transched.transmissibility import (
    FirModel,
    TransmissibilityFamily,
    predict_record,
    train_families,
)

from conftest import make_switching_record, make_training_record


def _aux_model(theta, sigma2, order=0, input_dim=1, dof=100):
    return FirModel(order=order, input_dim=input_dim, theta=np.asarray(theta, float),
                    sigma2=sigma2, dof=dof,
                    input_channel_names=tuple(f"u{i}" for i in range(input_dim)),
                    output_channel_name="v")


def _aux_family(models, labels=None):
    labels = labels or tuple(f"Q{i + 1}" for i in range(len(models)))
    return TransmissibilityFamily(kind="auxiliary", labels=tuple(labels),
                                  models=tuple(models),
                                  decomposition=Decomposition(aux_output_index=0))


def _window(u, v):
    u = np.atleast_2d(np.asarray(u, float))
    names = tuple(f"u{i}" for i in range(u.shape[0])) + ("v",)
    roles = tuple([PSEUDO_INPUT] * (u.shape[0] + 1))
    return TimeSeriesSet(sample_rate=1.0, names=names, roles=roles,
                         data=np.vstack([u, np.asarray(v, float)[None, :]]))


# ------------------------------------------------------------- log_evidence


def test_log_evidence_single_row_zero_residual():
    # one regression row, exact model: L = log(p) - log(sigma)
    model = _aux_model([2.0], sigma2=0.25)
    val = log_evidence(model, np.array([[3.0]]), np.array([6.0]), prior_q=0.4)
    assert val == pytest.approx(math.log(0.4) - math.log(0.5), rel=1e-14)


def test_log_evidence_equal_models_equal_value():
    rng = np.random.default_rng(0)
    u, v = rng.normal(size=(1, 30)), rng.normal(size=30)
    m1 = _aux_model([0.7, -0.1], sigma2=0.5, order=1)
    m2 = _aux_model([0.7, -0.1], sigma2=0.5, order=1)
    assert log_evidence(m1, u, v, 0.5) == log_evidence(m2, u, v, 0.5)


def test_log_evidence_decreases_with_residual():
    model = _aux_model([1.0], sigma2=1.0)
    u = np.ones((1, 10))
    vals = [log_evidence(model, u, np.ones(10) * (1.0 + eps), 0.5)
            for eps in (0.0, 0.5, 1.0)]
    assert vals[0] > vals[1] > vals[2]


def test_log_evidence_zero_prior_excludes():
    model = _aux_model([1.0], sigma2=1.0)
    assert log_evidence(model, np.ones((1, 5)), np.ones(5), 0.0) == -math.inf


def test_log_evidence_zero_variance_paths():
    model = _aux_model([1.0], sigma2=0.0)
    u = np.ones((1, 5))
    assert log_evidence(model, u, np.ones(5), 0.5) == math.inf
    with pytest.warns(RuntimeWarning, match="zero residual variance"):
        assert log_evidence(model, u, 2.0 * np.ones(5), 0.5) == -math.inf


def test_log_evidence_window_too_short():
    model = _aux_model([0.1, 0.2, 0.3], sigma2=1.0, order=2)
    with pytest.raises(DataError, match="insufficient samples"):
        log_evidence(model, np.ones((1, 2)), np.ones(2), 0.5)


# ----------------------------------------------------------------- classify


def test_classify_identical_models_split_posterior():
    rng = np.random.default_rng(1)
    m = _aux_model([0.4], sigma2=0.3)
    fam = _aux_family([m, _aux_model([0.4], sigma2=0.3)])
    win = _window(rng.normal(size=(1, 12)), rng.normal(size=12))
    res = classify(fam, win, Prior.uniform(2))
    np.testing.assert_array_equal(res.posterior, [0.5, 0.5])
    assert res.chosen == 0  # tie broken toward the first label


def test_classify_degenerate_prior_forces_choice():
    rng = np.random.default_rng(2)
    good = _aux_model([10.0], sigma2=1e-6)
    bad = _aux_model([0.0], sigma2=1e-6)
    fam = _aux_family([bad, good])
    u = rng.normal(size=(1, 12))
    win = _window(u, 10.0 * u[0])  # data matches the excluded member
    res = classify(fam, win, Prior(weights=np.array([1.0, 0.0])))
    np.testing.assert_array_equal(res.posterior, [1.0, 0.0])
    assert res.chosen == 0


def test_classify_picks_matching_model():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(1, 40))
    v = 2.0 * u[0] + rng.normal(0.0, 0.1, 40)
    fam = _aux_family([_aux_model([2.0], sigma2=0.01), _aux_model([-1.0], sigma2=0.01)])
    res = classify(fam, _window(u, v), Prior.uniform(2))
    assert res.chosen == 0
    assert res.posterior[0] > 0.999999


def test_classify_all_excluded():
    fam = _aux_family([_aux_model([1.0], 0.0), _aux_model([2.0], 0.0)])
    win = _window(np.ones((1, 6)), 5.0 * np.ones(6))
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NumericalError, match="no admissible model"):
            classify(fam, win, Prior.uniform(2))


def test_classify_window_too_short():
    fam = _aux_family([_aux_model([1.0, 0.0], sigma2=1.0, order=1)])
    win = _window(np.ones((1, 1)), np.ones(1))
    with pytest.raises(DataError, match="too short"):
        classify(fam, win, Prior.uniform(1))


def test_classify_prior_length_checked():
    fam = _aux_family([_aux_model([1.0], 1.0)])
    win = _window(np.ones((1, 6)), np.ones(6))
    with pytest.raises(ConfigError, match="weights"):
        classify(fam, win, Prior.uniform(2))


def test_classify_ambiguity_flag():
    rng = np.random.default_rng(4)
    u = rng.normal(size=(1, 20))
    v = 1.5 * u[0]
    near1 = _aux_model([1.5], sigma2=1.0)
    near2 = _aux_model([1.5000001], sigma2=1.0)
    far = _aux_model([-3.0], sigma2=1.0)
    assert classify(_aux_family([near1, near2]), _window(u, v), Prior.uniform(2)).ambiguous
    assert not classify(_aux_family([near1, far]), _window(u, v), Prior.uniform(2)).ambiguous


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_classify_posterior_normalized(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 6))
    fam = _aux_family(
        [_aux_model(rng.normal(size=2), float(rng.uniform(0.01, 2.0)), order=1)
         for _ in range(q)]
    )
    win = _window(rng.normal(size=(1, 15)), rng.normal(size=15))
    res = classify(fam, win, Prior.uniform(q))
    assert abs(float(res.posterior.sum()) - 1.0) <= 1e-12
    assert res.chosen == int(np.argmax(res.log_evidence))
    assert res.chosen == int(np.argmax(res.posterior))


def test_prior_scaling_does_not_change_choice():
    rng = np.random.default_rng(5)
    fam = _aux_family([_aux_model([1.1], 0.5), _aux_model([0.3], 0.8)])
    win = _window(rng.normal(size=(1, 10)), rng.normal(size=10))
    w = np.array([0.3, 0.7])
    res1 = classify(fam, win, Prior.from_weights(w))
    res2 = classify(fam, win, Prior.from_weights(10.0 * w))
    assert res1.chosen == res2.chosen
    np.testing.assert_allclose(res1.posterior, res2.posterior, atol=1e-15)


def test_classify_matches_direct_bayes_formula():
    # same posteriors as the non-log likelihood-times-prior normalization
    rng = np.random.default_rng(6)
    u = rng.normal(size=(1, 8))
    v = rng.normal(size=8)
    models = [_aux_model([0.5], 0.7), _aux_model([-0.2], 1.3), _aux_model([1.0], 0.4)]
    prior = Prior.from_weights([0.2, 0.5, 0.3])
    fam = _aux_family(models)
    res = classify(fam, _window(u, v), prior)
    direct = []
    n_rows = 8  # order 0: every sample yields a row
    for k, m in enumerate(models):
        r = v - u[0] * m.theta[0]
        lik = (2.0 * math.pi * m.sigma2) ** (-n_rows / 2.0) * math.exp(
            -float(r @ r) / (2.0 * m.sigma2)
        )
        direct.append(lik * prior.weights[k])
    direct = np.array(direct) / sum(direct)
    np.testing.assert_allclose(res.posterior, direct, rtol=1e-12)
    assert res.chosen == int(np.argmax(direct))


# ------------------------------------------------------------ pooled variance


def test_pooled_sigma2_dof_weighted():
    fam = _aux_family([_aux_model([1.0], 2.0, dof=10), _aux_model([1.0], 5.0, dof=30)])
    assert pooled_sigma2(fam) == pytest.approx((10 * 2.0 + 30 * 5.0) / 40.0)


def test_classify_pooled_uses_common_variance():
    rng = np.random.default_rng(7)
    u = rng.normal(size=(1, 20))
    v = 1.0 * u[0] + rng.normal(0.0, 0.05, 20)
    # the matching model has a huge variance, the wrong one a tiny one:
    # full-variance Bayes can be fooled by the variance term, pooled cannot
    m_match = _aux_model([1.0], sigma2=4.0, dof=50)
    m_wrong = _aux_model([0.9], sigma2=0.004, dof=50)
    fam = _aux_family([m_wrong, m_match])
    pooled = classify(fam, _window(u, v), Prior.uniform(2), pooled=True)
    assert pooled.chosen == 1  # with equal variances only the residual counts


# ---------------------------------------------------------- schedule_estimate


@pytest.fixture(scope="module")
def trained_families(quarter_car_systems):
    records = [
        make_training_record(quarter_car_systems, label, 1000, seed=900 + i,
                             snr=50.0)
        for i, label in enumerate(("C1", "C2"))
    ]
    return train_families(records, Decomposition(aux_output_index=1), order=10)


def test_schedule_single_member_family(quarter_car_systems, trained_families):
    g, h = trained_families
    g1 = TransmissibilityFamily(kind="primary", labels=("C1",), models=(g.models[0],))
    h1 = TransmissibilityFamily(kind="auxiliary", labels=("C1",), models=(h.models[0],),
                                decomposition=h.decomposition)
    online = make_training_record(quarter_car_systems, "C2", 200, seed=55, snr=50.0)
    trace = schedule_estimate(g1, h1, online, Prior.uniform(1), window_len=20)
    assert trace.chosen_labels() == ["C1"] * 10
    direct = predict_record(g.models[0], online)
    np.testing.assert_array_equal(trace.estimates[10:], direct)


def test_schedule_quarter_car_switching(quarter_car_systems, trained_families):
    g, h = trained_families
    online = make_switching_record(
        quarter_car_systems, (("C1", 80), ("C2", 80)), seed=77, snr=50.0
    )
    trace = schedule_estimate(g, h, online, Prior.uniform(2), window_len=20)
    assert trace.chosen_labels() == ["C1"] * 4 + ["C2"] * 4
    assert np.all(trace.posterior[np.arange(8), [0] * 4 + [1] * 4] > 0.99)
    # burn-in carry: every sample after the global first n has an estimate
    assert np.all(np.isnan(trace.estimates[:10]))
    assert np.all(np.isfinite(trace.estimates[10:]))
    assert trace.majority_label() == "C1"  # the 4-4 tie goes to the first label


def test_traces_compare_by_identity(quarter_car_systems, trained_families):
    # ndarray fields: a generated __eq__ would raise "truth value ... is ambiguous"
    g, h = trained_families
    online = make_training_record(quarter_car_systems, "C1", 200, seed=56, snr=50.0)
    a, b = (schedule_estimate(g, h, online, Prior.uniform(2), window_len=20) for _ in range(2))
    assert a == a and a != b
    np.testing.assert_array_equal(a.posterior, b.posterior)


def test_schedule_stationary_record_beats_wrong_model(quarter_car_systems,
                                                      trained_families):
    g, h = trained_families
    online = make_training_record(quarter_car_systems, "C2", 400, seed=88, snr=50.0)
    trace = schedule_estimate(g, h, online, Prior.uniform(2), window_len=20)
    assert all(label == "C2" for label in trace.chosen_labels())
    measured = online.target()
    mask = np.isfinite(trace.estimates)
    fit_sched = fit_metric(measured[mask], trace.estimates[mask])
    fit_wrong = fit_metric(measured[10:], predict_record(g.member("C1"), online))
    assert fit_sched >= fit_wrong


def test_schedule_skips_short_remainder(quarter_car_systems, trained_families):
    g, h = trained_families
    online = make_training_record(quarter_car_systems, "C1", 165, seed=99, snr=50.0)
    trace = schedule_estimate(g, h, online, Prior.uniform(2), window_len=20)
    assert trace.chosen.size == 8
    assert trace.skipped == ((9, 160, 165),)
    assert np.all(np.isnan(trace.estimates[160:]))
    np.testing.assert_array_equal(trace.member[160:], [-1] * 5)
    assert np.all(trace.member[:160] >= 0)
    assert np.all(np.isfinite(trace.estimates[10:160]))


def test_schedule_with_given_predictions_is_identical(quarter_car_systems,
                                                     trained_families):
    g, h = trained_families
    online = make_switching_record(
        quarter_car_systems, (("C1", 80), ("C2", 85)), seed=78, snr=50.0
    )
    preds = np.array([predict_record(m, online) for m in g.models])
    rss = window_rss(h, online, 20)
    assert rss.shape == (8, 2)
    for pooled in (False, True):
        own = schedule_estimate(g, h, online, Prior.uniform(2), 20, pooled=pooled)
        given_ = schedule_estimate(g, h, online, Prior.uniform(2), 20, pooled=pooled,
                                   predictions=preds, rss=rss)
        assert given_.estimates.tobytes() == own.estimates.tobytes()
        assert given_.log_evidence.tobytes() == own.log_evidence.tobytes()
        np.testing.assert_array_equal(given_.member, own.member)
    with pytest.raises(DataError, match="predictions have shape"):
        schedule_estimate(g, h, online, Prior.uniform(2), 20, predictions=preds[:, 1:])
    with pytest.raises(DataError, match=r"rss have shape \(7, 2\); expected \(8, 2\)"):
        schedule_estimate(g, h, online, Prior.uniform(2), 20, rss=rss[1:])


def test_schedule_record_shorter_than_one_window(quarter_car_systems,
                                                 trained_families):
    g, h = trained_families
    online = make_training_record(quarter_car_systems, "C1", 8, seed=14, snr=50.0)
    trace = schedule_estimate(g, h, online, Prior.uniform(2), window_len=20)
    assert trace.windows == () and trace.skipped == ((1, 0, 8),)
    assert trace.log_evidence.shape == trace.posterior.shape == (0, 2)
    np.testing.assert_array_equal(trace.member, [-1] * 8)
    assert np.all(np.isnan(trace.estimates))
    with pytest.raises(DataError, match="no classified windows"):
        trace.majority_label()


def test_schedule_window_must_exceed_order(quarter_car_systems, trained_families):
    g, h = trained_families
    online = make_training_record(quarter_car_systems, "C1", 100, seed=12, snr=50.0)
    with pytest.raises(ConfigError, match="exceed the FIR order"):
        schedule_estimate(g, h, online, Prior.uniform(2), window_len=10)


def test_schedule_missing_channel(trained_families):
    g, h = trained_families
    bad = TimeSeriesSet(sample_rate=10.0, names=("other",), roles=(PSEUDO_INPUT,),
                        data=np.zeros((1, 50)))
    with pytest.raises(DataError, match="missing channel"):
        schedule_estimate(g, h, bad, Prior.uniform(2), window_len=20)


# ------------------------------------------- array path vs per-window classify

# Agreement bound of schedule_estimate against classify, stated in its
# docstring: |dL| <= BOUND * max(1, |L|) and |d posterior| <= BOUND.
BOUND = 1e-12


def _families(thetas, sigma2s, order, n_drivers, labels=None):
    """Auxiliary family over u0.. -> v and a primary family over u0.., v."""
    q = len(thetas)
    labels = labels or tuple(f"Q{i + 1}" for i in range(q))
    h = _aux_family(
        [_aux_model(t, s2, order=order, input_dim=n_drivers)
         for t, s2 in zip(thetas, sigma2s)],
        labels,
    )
    names = h.input_channel_names + ("v",)
    g = TransmissibilityFamily(kind="primary", labels=tuple(labels), models=tuple(
        FirModel(order=order, input_dim=n_drivers + 1,
                 theta=np.linspace(-1.0, 1.0, (n_drivers + 1) * (order + 1)) * (k + 1),
                 sigma2=1.0, dof=100, input_channel_names=names,
                 output_channel_name="y")
        for k in range(q)
    ))
    return g, h


def _deciding_gaps(levidence):
    """classify's deciding gaps: top-1 minus top-2 evidence for the choice,
    and the distance of the two best finite evidences' gap from
    AMBIGUITY_NATS for the ambiguity flag."""
    top = np.sort(levidence)[::-1]
    finite = top[np.isfinite(top)]
    choice_gap = top[0] - top[1] if top.size > 1 else math.inf
    flag_gap = (abs(finite[0] - finite[1] - AMBIGUITY_NATS)
                if finite.size > 1 else math.inf)
    return choice_gap, flag_gap


@given(
    seed=st.integers(0, 2**32 - 1),
    order=st.integers(0, 4),
    n_drivers=st.integers(1, 2),
    q=st.integers(1, 4),
    extra=st.integers(1, 12),
    n_full=st.integers(0, 9),
    tail=st.integers(0, 16),
    pooled=st.booleans(),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_schedule_matches_per_window_classify(seed, order, n_drivers, q, extra,
                                              n_full, tail, pooled, data):
    window_len = order + extra
    tail %= window_len  # 0, a skipped tail (<= order) or a classified one
    m = n_full * window_len + tail
    if m == 0:
        m = tail = 1
    zero = data.draw(st.lists(st.booleans(), min_size=q, max_size=q))
    if all(zero):
        zero[0] = False
    rng = np.random.default_rng(seed)
    p = n_drivers * (order + 1)
    thetas = [rng.normal(size=p) for _ in range(q)]
    g, h = _families(thetas, rng.uniform(0.05, 2.0, size=q), order, n_drivers)
    weights = np.where(zero, 0.0, rng.uniform(0.1, 1.0, size=q))
    prior = Prior.from_weights(weights)
    u = rng.normal(size=(n_drivers, m))
    truth = thetas[int(rng.integers(q))]
    v = np.convolve(u[0], truth[::n_drivers])[:m] + rng.normal(0.0, 0.3, m)
    online = _window(u, v)

    trace = schedule_estimate(g, h, online, prior, window_len, pooled=pooled)
    member_preds = [predict_record(mod, online) for mod in g.models] if m > order else []

    # the windows partition the record; a tail of <= order samples is skipped
    edges = list(range(0, m, window_len)) + [m]
    expected = list(zip(edges[:-1], edges[1:]))
    if expected[-1][1] - expected[-1][0] <= order:
        assert trace.skipped == ((len(expected), *expected[-1]),)
        expected.pop()
    else:
        assert trace.skipped == ()
    assert list(zip(trace.starts.tolist(), trace.stops.tolist())) == expected
    assert trace.log_evidence.shape == trace.posterior.shape == (len(expected), q)

    estimates = np.full(m, math.nan)
    member = np.full(m, -1)
    for res, (start, stop) in zip(trace.windows, expected):
        ref = classify(h, _window(u[:, start:stop], v[start:stop]), prior,
                       pooled=pooled, window_id=res.window_id)
        inf = ~np.isfinite(ref.log_evidence)
        np.testing.assert_array_equal(res.log_evidence[inf], ref.log_evidence[inf])
        scale = np.maximum(1.0, np.abs(ref.log_evidence[~inf]))
        assert np.all(np.abs(res.log_evidence[~inf] - ref.log_evidence[~inf])
                      <= BOUND * scale)
        assert np.all(np.abs(res.posterior - ref.posterior) <= BOUND)
        # both evidences of a gap may move by the bound, so the gap by twice it
        tol = 2 * BOUND * max(1.0, abs(float(ref.log_evidence.max())))
        choice_gap, flag_gap = _deciding_gaps(ref.log_evidence)
        if choice_gap > tol:
            assert res.chosen == ref.chosen
        if flag_gap > tol:
            assert res.ambiguous == ref.ambiguous
        preds = member_preds[res.chosen]
        lo = max(start, order)
        estimates[lo:stop] = preds[lo - order : stop - order]
        member[start:stop] = res.chosen
    np.testing.assert_array_equal(trace.estimates, estimates)
    np.testing.assert_array_equal(trace.member, member)


def test_schedule_zero_variance_paths():
    # Q1 has zero variance: exact windows give +inf, the rest -inf with a warning
    g, h = _families([[1.0], [0.5]], [0.0, 1.0], order=0, n_drivers=1)
    u = np.arange(1.0, 13.0)[None, :]
    v = u[0].copy()
    v[6:] *= 2.0  # second window misses Q1
    with pytest.warns(RuntimeWarning, match="zero residual variance"):
        trace = schedule_estimate(g, h, _window(u, v), Prior.uniform(2), window_len=6)
    first, second = trace.log_evidence
    assert first[0] == math.inf and math.isfinite(first[1])
    assert second[0] == -math.inf
    np.testing.assert_array_equal(trace.posterior, [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(trace.chosen, [0, 1])
    assert not trace.ambiguous[0]
    # a zero prior excludes the member before its variance is looked at
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = schedule_estimate(g, h, _window(u, v), Prior.from_weights([0.0, 1.0]),
                                  window_len=6)
    np.testing.assert_array_equal(trace.log_evidence[:, 0], [-math.inf] * 2)
    assert trace.chosen_labels() == ["Q2", "Q2"]


def test_schedule_all_excluded_is_numerical_error():
    g, h = _families([[1.0], [2.0]], [0.0, 0.0], order=0, n_drivers=1)
    online = _window(np.ones((1, 12)), 5.0 * np.ones(12))
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NumericalError, match="no admissible model"):
            schedule_estimate(g, h, online, Prior.uniform(2), window_len=6)


# ------------------------------------------------------------------- traces


def test_trace_csvs(tmp_path, quarter_car_systems, trained_families):
    g, h = trained_families
    online = make_switching_record(
        quarter_car_systems, (("C1", 80), ("C2", 80)), seed=13, snr=50.0
    )
    trace = schedule_estimate(g, h, online, Prior.uniform(2), window_len=20)
    wpath, spath = tmp_path / "w.csv", tmp_path / "s.csv"
    write_window_trace(trace, wpath)
    write_sample_trace(trace, spath)

    wlines = wpath.read_text().splitlines()
    assert wlines[0] == "# format: transched-window-trace v2"
    assert wlines[1] == "window_id,start_sample,end_sample,chosen_label,L_1,L_2,ambiguous"
    assert len(wlines) == 2 + 8
    first = wlines[2].split(",")
    assert first[:4] == ["1", "1", "20", "C1"]
    # the posteriors are not written: the evidences give them back exactly
    levidence = np.array([[float(c) for c in line.split(",")[4:6]] for line in wlines[2:]])
    assert levidence.tobytes() == trace.log_evidence.tobytes()
    assert _posterior_rows(levidence).tobytes() == trace.posterior.tobytes()

    slines = spath.read_text().splitlines()
    assert slines[0] == "# format: transched-sample-trace v2"
    assert slines[1] == "sample_index,chosen_label,y_O_estimated"
    assert len(slines) == 2 + 160
    assert slines[2] == "1,C1,"  # first sample: labeled, no estimate
    r11 = slines[12].split(",")
    assert r11[:2] == ["11", "C1"] and float(r11[2]) == trace.estimates[10]

    # byte-identical rewrite
    write_window_trace(trace, tmp_path / "w2.csv")
    assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


# A hand-made case whose trace text was written by the per-window object
# writers the column writers replace: order 1, window 4 over 9 samples (the
# 1-sample tail is skipped), Q1 excluded by a zero prior, Q3 exact on the
# first window and Q2/Q3 tied on the second.  Every evidence difference is 0,
# or large enough that exp underflows, so the posteriors are exact.
# TINY_WINDOWS is those writers' v1 window text with its posterior columns
# cut, and TINY_SAMPLES their v1 sample text with its y_O_measured column
# cut and the label moved before the estimate; no cell was rewritten.
TINY_WINDOWS = """\
# format: transched-window-trace v2
window_id,start_sample,end_sample,chosen_label,L_1,L_2,L_3,ambiguous
1,1,4,Q3,-inf,-60151.34939718056,-0.6931471805599453,0
2,5,8,Q2,-inf,-3125025.1931471806,-3125025.1931471806,1
"""

TINY_SAMPLES = """\
# format: transched-sample-trace v2
sample_index,chosen_label,y_O_estimated
1,Q3,
2,Q3,201.0
3,Q3,-199.5
4,Q3,200.25
5,Q2,-290.2125
6,Q2,-3.47
7,Q2,-0.699995
8,Q2,1250.000001
9,,
"""


def _tiny_case():
    labels = ("Q1", "Q2", "Q3")
    h = _aux_family([_aux_model(t, 1.0, order=1, dof=10)
                     for t in ([0.5, 0.5], [1.0, 0.0], [-1.0, 0.0])], labels)
    g = TransmissibilityFamily(kind="primary", labels=labels, models=tuple(
        FirModel(order=1, input_dim=2, theta=np.array(t), sigma2=1.0, dof=10,
                 input_channel_names=("u0", "v"), output_channel_name="y")
        for t in ([1.0, 1.0, 1.0, 1.0], [0.5, -0.25, 0.1, 3.0], [2.0, 0.0, 0.0, 0.0])
    ))
    u = [100.0, 100.5, -99.75, 100.125, 0.3, -7.0, 1e-05, 2.5e3, 42.0]
    v = [-x for x in u[:4]] + [0.0] * 5
    y = [0.1, -2.5, 1e20, 3.0, -0.0, 7.25, 1.0 / 3.0, 2.0, -1e-7]
    online = TimeSeriesSet(sample_rate=1.0, names=("u0", "v", "y"),
                           roles=(PSEUDO_INPUT, PSEUDO_INPUT, TARGET_OUTPUT),
                           data=np.array([u, v, y]))
    return g, h, online, Prior.from_weights([0.0, 1.0, 1.0])


def test_trace_writers_reproduce_pinned_text(tmp_path, monkeypatch):
    g, h, online, prior = _tiny_case()
    no_target = TimeSeriesSet(sample_rate=1.0, names=("u0", "v"),
                              roles=(PSEUDO_INPUT,) * 2, data=online.data[:2])
    for chunk_rows in (dataset.WRITE_CHUNK_ROWS, 4):  # one chunk, then three
        monkeypatch.setattr(dataset, "WRITE_CHUNK_ROWS", chunk_rows)
        # the traces hold nothing of the target: with and without it, one text
        for record in (online, no_target):
            trace = schedule_estimate(g, h, record, prior, window_len=4)
            assert trace.skipped == ((3, 8, 9),)
            write_window_trace(trace, tmp_path / "w.csv")
            write_sample_trace(trace, tmp_path / "s.csv")
            assert (tmp_path / "w.csv").read_text() == TINY_WINDOWS
            assert (tmp_path / "s.csv").read_text() == TINY_SAMPLES
    # the pinned evidences, -inf included, give back the posteriors exactly
    levidence = np.array([[float(c) for c in line.split(",")[4:7]]
                          for line in TINY_WINDOWS.splitlines()[2:]])
    assert _posterior_rows(levidence).tobytes() == trace.posterior.tobytes()
    np.testing.assert_array_equal(trace.posterior, [[0.0, 0.0, 1.0], [0.0, 0.5, 0.5]])


def test_trace_contract():
    g, h, online, prior = _tiny_case()
    trace = schedule_estimate(g, h, online, prior, window_len=4)
    np.testing.assert_array_equal(trace.starts, [0, 4])
    np.testing.assert_array_equal(trace.stops, [4, 8])
    np.testing.assert_array_equal(trace.chosen, [2, 1])
    np.testing.assert_array_equal(trace.ambiguous, [False, True])
    np.testing.assert_array_equal(trace.member, [2] * 4 + [1] * 4 + [-1])
    assert trace.chosen_labels() == ["Q3", "Q2"]
    # the derived per-window view agrees with the arrays
    windows = trace.windows
    assert len(windows) == trace.chosen.size
    assert [w.window_id for w in windows] == [1, 2]
    assert [w.chosen for w in windows] == trace.chosen.tolist()
    assert [w.ambiguous for w in windows] == trace.ambiguous.tolist()
    for i, w in enumerate(windows):
        assert w.log_evidence.tobytes() == trace.log_evidence[i].tobytes()
        assert w.posterior.tobytes() == trace.posterior[i].tobytes()
    # the most frequent choice wins; an even split goes to the earliest label
    assert trace.majority_label() == "Q2"
    for chosen, majority in (([2, 1, 2], "Q3"), ([2, 1, 2, 1], "Q2"), ([0, 2], "Q1")):
        split = dataclasses.replace(trace, chosen=np.array(chosen))
        assert split.majority_label() == majority


# -------------------------------------------------------------------- prior


def test_prior_validation():
    with pytest.raises(ConfigError, match="non-negative"):
        Prior(weights=np.array([0.5, -0.5, 1.0]))
    with pytest.raises(ConfigError, match=r"sum to 1, got 0\.9$"):  # a plain float
        Prior(weights=np.array([0.5, 0.4]))
    with pytest.raises(ConfigError, match="positive sum"):
        Prior.from_weights([0.0, 0.0])
    for bad in ([math.nan, math.nan], [0.5, math.inf], [1.0, math.nan]):
        with pytest.raises(ConfigError, match="finite"):
            Prior(weights=np.array(bad))
        with pytest.raises(ConfigError, match="finite"):
            Prior.from_weights(bad)
    uniform = Prior.uniform(3)
    assert abs(float(uniform.weights.sum()) - 1.0) <= 1e-12
