import dataclasses

import numpy as np
import pytest

from transched.dataset import PSEUDO_INPUT, TARGET_OUTPUT, Decomposition, TimeSeriesSet
from transched.errors import DataError
from transched.evaluation import (
    compare_report,
    fit_metric,
    write_accuracy_csv,
    write_report_csv,
    write_summary_csv,
)
from transched.scheduler import Prior, ScheduleTrace, schedule_estimate
from transched.transmissibility import (
    FirModel,
    TransmissibilityFamily,
    fit_average,
    predict_record,
    train_families,
)

from conftest import make_training_record


# --------------------------------------------------------------- fit_metric


def test_fit_perfect_estimate():
    y = np.array([1.0, 2.0, 3.0, -1.0])
    assert fit_metric(y, y) == 100.0


def test_fit_mean_predictor_is_zero():
    y = np.array([1.0, 2.0, 3.0, 10.0])
    assert fit_metric(y, np.full(4, y.mean())) == pytest.approx(0.0, abs=1e-10)


def test_fit_zero_estimate_of_zero_mean_signal():
    assert fit_metric([1.0, -1.0], [0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_fit_can_be_negative():
    assert fit_metric([1.0, -1.0], [-10.0, 10.0]) < 0.0


def test_fit_constant_signal_rejected():
    with pytest.raises(DataError, match="constant"):
        fit_metric([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_fit_length_mismatch():
    with pytest.raises(DataError, match="length mismatch"):
        fit_metric([1.0, 2.0], [1.0, 2.0, 3.0])


def test_fit_needs_two_samples():
    with pytest.raises(DataError, match="at least 2"):
        fit_metric([1.0], [1.0])


# ------------------------------------------------------------ compare_report


def _study(systems, n_online):
    g, avg, online, traces = _scheduled_study(systems, n_online)
    preds = {
        ts.condition_label: np.array([predict_record(m, ts) for m in g.models])
        for ts in online
    }
    report = compare_report(g, avg, online, {"full": traces}, preds)
    return g, avg, online, report


def _scheduled_study(systems, n_online):
    records = [
        make_training_record(systems, label, 1000, seed=60 + i)
        for i, label in enumerate(("C1", "C2"))
    ]
    g, h = train_families(records, Decomposition(aux_output_index=1), order=10)
    avg = fit_average(records, ("y_I1_a", "y_I2"), "y_O", order=10)
    # one online record per condition, fresh excitation, clean data
    online = [
        _with_label(make_training_record(systems, "C1", n_online, seed=71), "O1"),
        _with_label(make_training_record(systems, "C2", n_online, seed=72), "O2"),
    ]
    prior = Prior.uniform(2)
    traces = {
        ts.condition_label: schedule_estimate(g, h, ts, prior, 50) for ts in online
    }
    return g, avg, online, traces


@pytest.fixture(scope="module")
def study(quarter_car_systems):
    return _study(quarter_car_systems, 600)


@pytest.fixture(scope="module")
def ragged_study(quarter_car_systems):
    # 605 samples in windows of 50 leave a 5-sample tail, too short for order
    # 10, which the scheduled estimator skips
    return _study(quarter_car_systems, 605)


def _with_label(ts, label):
    return dataclasses.replace(ts, condition_label=label)


def test_report_row_per_condition(study):
    g, _, online, report = study
    assert report.conditions == ("O1", "O2")
    assert report.fits.shape == (len(online), len(g) + 3)


def test_reports_compare_by_identity(quarter_car_systems):
    # ndarray field: a generated __eq__ would raise "truth value ... is ambiguous"
    g, avg, online, traces = _scheduled_study(quarter_car_systems, 200)
    preds = {
        ts.condition_label: np.array([predict_record(m, ts) for m in g.models])
        for ts in online
    }
    a, b = (compare_report(g, avg, online, {"full": traces}, preds) for _ in range(2))
    assert a == a and a != b
    np.testing.assert_array_equal(a.fits, b.fits)


def test_report_scheduled_matches_member_on_clean_matched_data(study):
    g, _, _, report = study
    # online O1 is condition C1 exactly and every window picks C1, so the
    # scheduled estimator is G_C1 itself: its FIT equals the member FIT exactly
    assert report.column("scheduled")[0] == report.column("C1")[0]
    assert report.chosen[0] == "C1"


def test_report_ideal_dominates(study):
    _, _, _, report = study
    ideal = report.column("ideal")
    np.testing.assert_array_equal(ideal, report.fits[:, :2].max(axis=1))
    assert np.all(ideal >= report.column("scheduled"))
    assert np.all(ideal >= report.column("average"))


def test_report_scores_ragged_records_on_covered_samples(ragged_study):
    _, _, _, report = ragged_study
    ideal = report.column("ideal")
    np.testing.assert_array_equal(ideal, report.fits[:, :2].max(axis=1))
    assert np.all(ideal >= report.column("scheduled"))
    # every O1 window picks C1, so scheduled and G_C1 are scored on the same samples
    assert report.chosen[0] == "C1"
    assert report.column("scheduled")[0] == report.column("C1")[0]


def test_report_accuracy_full_variant(study):
    _, _, _, report = study
    assert report.accuracies == {"full": 1.0}


def test_report_requires_ground_truth(study, quarter_car_systems):
    g, avg, online, _ = study
    no_target = dataclasses.replace(
        online[0],
        roles=(PSEUDO_INPUT, PSEUDO_INPUT, PSEUDO_INPUT),
    )
    with pytest.raises(DataError, match="ground truth"):
        compare_report(g, avg, [no_target], {"full": {}}, {})


def test_report_csv_consistency(tmp_path, study):
    _, _, _, report = study
    write_report_csv(report, tmp_path / "report.csv")
    write_summary_csv(report, tmp_path / "summary.csv")
    write_accuracy_csv(report, tmp_path / "accuracy.csv")

    lines = (tmp_path / "report.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header == ["condition", "FIT_G1", "FIT_G2", "FIT_avg", "FIT_scheduled",
                      "FIT_ideal", "chosen_q", "indicator"]
    for line in lines[2:]:
        cells = line.split(",")
        members = [float(c) for c in cells[1:3]]
        assert float(cells[5]) == max(members)  # ideal recomputed from columns

    slines = (tmp_path / "summary.csv").read_text().splitlines()
    assert slines[1] == "estimator,mean_fit,std_fit"
    names = [l.split(",")[0] for l in slines[2:]]
    assert names == ["G_C1", "G_C2", "average", "scheduled", "ideal"]

    alines = (tmp_path / "accuracy.csv").read_text().splitlines()
    assert alines[1] == "classifier,accuracy"
    assert alines[2] == "full,1.0"


# ------------------------------------------------------- pinned report text


def _pinned_case():
    """Inputs of ``compare_report`` for two hand-made records, with given
    predictions.

    Order 1 and windows of 2 over 7 samples: sample 0 has no estimate and the
    1-sample tail is skipped, so every FIT is taken over samples 1..5.  On O1,
    G1 and G2 tie for the best FIT (one error of 0.5 each) and G3 predicts -y,
    a negative FIT; on O2, G1 is best.  The full variant chooses G2 (a tied
    best: a hit) on O1 and G2 (a miss) on O2; the pooled variant chooses G1 on
    both, two hits.
    """
    labels = ("C1", "C2", "C3")
    names = ("u0", "v")

    def model(theta):
        return FirModel(order=1, input_dim=2, theta=np.array(theta), sigma2=1.0,
                        dof=10, input_channel_names=names, output_channel_name="y")

    g = TransmissibilityFamily(kind="primary", labels=labels, models=tuple(
        model(t) for t in ([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0])
    ))
    average = model([0.5, 0.5, 0.0, 0.0])
    ys = {
        "O1": [0.5, 1.0, -2.0, 3.0, 0.25, -1.5, 4.0],
        "O2": [1.0, 2.0, 0.5, -1.0, -3.0, 2.5, 0.0],
    }
    v = [0.0, 2.0, -1.0, 0.0, 1.0, 1.0, -3.0]
    errors = {
        "O1": ([0.0, 0.5, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -0.5, 0.0, 0.0]),
        "O2": ([0.0, 0.0, 0.1, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
    }
    chosen = {"O1": {"full": [1, 1, 0], "pooled": [0, 0, 2]},
              "O2": {"full": [1, 1, 1], "pooled": [0, 0, 0]}}
    records, predictions = [], {}
    traces = {"full": {}, "pooled": {}}
    for label, y in ys.items():
        records.append(TimeSeriesSet(
            sample_rate=1.0, names=("u0", "v", "y"),
            roles=(PSEUDO_INPUT, PSEUDO_INPUT, TARGET_OUTPUT),
            data=np.array([y, v, y]), condition_label=label,
        ))
        tail = np.array(y[1:])
        e1, e2 = (np.array(e) for e in errors[label])
        preds = np.array([tail + e1, tail + e2, -tail])
        predictions[label] = preds
        for variant, picks in chosen[label].items():
            member = np.array(np.repeat(picks, 2).tolist() + [-1])
            estimates = np.full(7, np.nan)
            estimates[1:6] = preds[member[1:6], np.arange(5)]
            traces[variant][label] = ScheduleTrace(
                labels=labels, log_evidence=np.zeros((3, 3)), chosen=np.array(picks),
                ambiguous=np.zeros(3, dtype=bool), starts=np.array([0, 2, 4]),
                stops=np.array([2, 4, 6]), skipped=((4, 6, 7),), member=member,
                estimates=estimates,
            )
    return g, average, records, traces, predictions


def _pinned_report(**kw):
    g, average, records, traces, predictions = _pinned_case()
    return compare_report(g, average, records, traces, predictions=predictions, **kw)


PINNED_REPORT = """\
# format: transched-report v1
condition,FIT_G1,FIT_G2,FIT_G3,FIT_avg,FIT_scheduled,FIT_ideal,chosen_q,indicator
O1,87.57740012500118,87.57740012500118,-100.69324297987157,47.570594199508676,100.0,87.57740012500118,C2,1
O2,97.78051619190762,77.80516191907624,-100.98280690136346,48.543384767053254,77.80516191907624,97.78051619190762,C2,0
"""

PINNED_SUMMARY = """\
# format: transched-report-summary v1
estimator,mean_fit,std_fit
G_C1,92.6789581584544,5.101558033453223
G_C2,82.69128102203871,4.886119102962468
G_C3,-100.83802494061752,0.14478196074594507
average,48.056989483280965,0.48639528377228913
scheduled,88.90258095953811,11.09741904046188
ideal,92.6789581584544,5.101558033453223
"""

PINNED_ACCURACY = """\
# format: transched-report-accuracy v1
classifier,accuracy
full,0.5
pooled,1.0
"""


def test_report_writers_reproduce_pinned_text(tmp_path):
    report = _pinned_report()
    for write, text in ((write_report_csv, PINNED_REPORT),
                        (write_summary_csv, PINNED_SUMMARY),
                        (write_accuracy_csv, PINNED_ACCURACY)):
        write(report, tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text() == text


def test_ideal_fit_is_max():
    report = _pinned_report()
    np.testing.assert_array_equal(report.column("ideal"), report.fits[:, :3].max(axis=1))
    # not the scheduled FIT, which may exceed it on a record that switches
    assert report.column("scheduled")[0] > report.column("ideal")[0]


def test_ideal_fit_single():
    g, average, records, traces, predictions = _pinned_case()
    one = TransmissibilityFamily(kind="primary", labels=("C1",), models=g.models[:1])
    traces = {"full": {
        label: dataclasses.replace(t, labels=one.labels, chosen=np.zeros(3, dtype=int))
        for label, t in traces["full"].items()
    }}
    report = compare_report(one, average, records, traces,
                            {label: p[:1] for label, p in predictions.items()})
    np.testing.assert_array_equal(report.column("ideal"), report.column("C1"))
    assert report.accuracies == {"full": 1.0}


def test_ideal_fit_tie():
    report = _pinned_report()
    c1, c2 = report.column("C1")[0], report.column("C2")[0]
    assert c1 == c2 == report.column("ideal")[0]


def test_indicator_hits_and_misses(tmp_path):
    report = _pinned_report()
    write_report_csv(report, tmp_path / "report.csv")
    rows = (tmp_path / "report.csv").read_text().splitlines()[2:]
    assert [r.split(",")[-2:] for r in rows] == [["C2", "1"], ["C2", "0"]]


def test_indicator_tie_counts_as_correct():
    # on O1, full picks C2 and pooled picks C1, the two tied best members
    g, average, records, traces, predictions = _pinned_case()
    traces = {v: {"O1": t["O1"]} for v, t in traces.items()}
    report = compare_report(g, average, records[:1], traces, predictions)
    assert report.accuracies == {"full": 1.0, "pooled": 1.0}


def test_accuracy_values():
    assert _pinned_report().accuracies == {"full": 0.5, "pooled": 1.0}
    assert _pinned_report(scheduled_variant="pooled").chosen == ("C1", "C1")
    g, average, records, traces, predictions = _pinned_case()
    worst = {label: dataclasses.replace(t, chosen=np.full(3, 2))
             for label, t in traces["full"].items()}
    report = compare_report(g, average, records, {"full": worst}, predictions)
    assert report.accuracies == {"full": 0.0}
