import dataclasses

import numpy as np
import pytest

from transched.dataset import TimeSeriesSet
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
    train_families,
)

from conftest import make_training_record

# ComparisonReport.fits columns: one per member in label order, then these
AVERAGE, SCHEDULED, IDEAL = -3, -2, -1


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
    g, avg, runs = _scheduled_study(systems, n_online)
    report = compare_report(g, avg, runs)
    return g, avg, runs, report


def _scheduled_study(systems, n_online):
    records = {
        label: make_training_record(systems, label, 1000, seed=60 + i)
        for i, label in enumerate(("C1", "C2"))
    }
    g, h = train_families(records, "y_O", "y_I2", order=10)
    avg = fit_average(records.values(), ("y_I1_a", "y_I2"), "y_O", order=10)
    # one online record per condition, fresh excitation, clean data
    online = {
        "O1": make_training_record(systems, "C1", n_online, seed=71),
        "O2": make_training_record(systems, "C2", n_online, seed=72),
    }
    prior = Prior.uniform(2)
    runs = {label: (ts, schedule_estimate(g, h, ts, prior, 50)) for label, ts in online.items()}
    return g, avg, runs


@pytest.fixture(scope="module")
def study(quarter_car_systems):
    return _study(quarter_car_systems, 600)


@pytest.fixture(scope="module")
def ragged_study(quarter_car_systems):
    # 605 samples in windows of 50 leave a 5-sample tail, too short for order
    # 10, which the scheduled estimator skips
    return _study(quarter_car_systems, 605)


def test_report_row_per_condition(study):
    g, _, runs, report = study
    assert report.conditions == ("O1", "O2")
    assert report.fits.shape == (len(runs), len(g) + 3)


def test_reports_compare_by_identity(quarter_car_systems):
    # ndarray field: a generated __eq__ would raise "truth value ... is ambiguous"
    g, avg, runs = _scheduled_study(quarter_car_systems, 200)
    a, b = (compare_report(g, avg, runs) for _ in range(2))
    assert a == a and a != b
    np.testing.assert_array_equal(a.fits, b.fits)


def test_report_scheduled_matches_member_on_clean_matched_data(study):
    g, _, _, report = study
    # online O1 is condition C1 exactly and every window picks C1, so the
    # scheduled estimator is G_C1 itself: its FIT equals the member FIT exactly
    assert report.fits[0, SCHEDULED] == report.fits[0, 0]
    assert report.chosen[0] == "C1"


def test_report_ideal_dominates(study):
    _, _, _, report = study
    ideal = report.fits[:, IDEAL]
    np.testing.assert_array_equal(ideal, report.fits[:, :2].max(axis=1))
    assert np.all(ideal >= report.fits[:, SCHEDULED])
    assert np.all(ideal >= report.fits[:, AVERAGE])


def test_report_scores_ragged_records_on_covered_samples(ragged_study):
    _, _, _, report = ragged_study
    ideal = report.fits[:, IDEAL]
    np.testing.assert_array_equal(ideal, report.fits[:, :2].max(axis=1))
    assert np.all(ideal >= report.fits[:, SCHEDULED])
    # every O1 window picks C1, so scheduled and G_C1 are scored on the same samples
    assert report.chosen[0] == "C1"
    assert report.fits[0, SCHEDULED] == report.fits[0, 0]


def test_report_accuracy_full_variant(study):
    _, _, _, report = study
    assert report.accuracy == 1.0


def test_report_requires_ground_truth(study, quarter_car_systems):
    g, avg, runs, _ = study
    ts, trace = runs["O1"]
    no_target = dataclasses.replace(ts, names=("y_I1_a", "y_I2", "other"))
    with pytest.raises(DataError, match="record 'O1' is missing ground truth"):
        compare_report(g, avg, {"O1": (no_target, trace)})


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
    assert alines[1:] == ["accuracy", "1.0"]


# ------------------------------------------------------- pinned report text


# per record, the member each of its three windows picks in the pinned traces
PINNED_PICKS = {"O1": [1, 1, 0], "O2": [1, 1, 1]}
# another choice of members: G1 by majority on both records
OTHER_PICKS = {"O1": [0, 0, 2], "O2": [0, 0, 0]}


def _pinned_case(picks=PINNED_PICKS):
    """Inputs of ``compare_report``: two hand-made records, each filed with a
    trace of given predictions whose windows pick the members ``picks`` gives.

    Order 1 and windows of 2 over 7 samples: sample 0 has no estimate and the
    1-sample tail is skipped, so every FIT is taken over samples 1..5.  On O1,
    G1 and G2 tie for the best FIT (one error of 0.5 each) and G3 predicts -y,
    a negative FIT; on O2, G1 is best.  PINNED_PICKS chooses G2 (a tied best:
    a hit) on O1 and G2 (a miss) on O2; OTHER_PICKS chooses G1 on both, two
    hits.
    """
    labels = ("C1", "C2", "C3")
    names = ("u0", "v")

    def model(theta):
        return FirModel(order=1, input_channel_names=names, theta=np.array(theta), sigma2=1.0,
                        dof=10, output_channel_name="y")

    g = TransmissibilityFamily(labels=labels, models=tuple(
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
    runs = {}
    for label, y in ys.items():
        tail = np.array(y[1:])
        e1, e2 = (np.array(e) for e in errors[label])
        preds = np.array([tail + e1, tail + e2, -tail])
        member = np.array(np.repeat(picks[label], 2).tolist() + [-1])
        estimates = np.full(7, np.nan)
        estimates[1:6] = preds[member[1:6], np.arange(5)]
        trace = ScheduleTrace(
            labels=labels, log_evidence=np.zeros((3, 3)), chosen=np.array(picks[label]),
            ambiguous=np.zeros(3, dtype=bool), starts=np.array([0, 2, 4]),
            stops=np.array([2, 4, 6]), skipped=((4, 6, 7),), member=member,
            estimates=estimates, predictions=preds, target="y",
        )
        runs[label] = TimeSeriesSet(names=("u0", "v", "y"), data=np.array([y, v, y])), trace
    return g, average, runs


def _pinned_report(picks=PINNED_PICKS):
    return compare_report(*_pinned_case(picks))


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
# format: transched-report-accuracy v2
accuracy
0.5
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
    np.testing.assert_array_equal(report.fits[:, IDEAL], report.fits[:, :3].max(axis=1))
    # not the scheduled FIT, which may exceed it on a record that switches
    assert report.fits[0, SCHEDULED] > report.fits[0, IDEAL]


def test_ideal_fit_single():
    g, average, runs = _pinned_case()
    one = TransmissibilityFamily(labels=("C1",), models=g.models[:1])
    runs = {
        label: (ts, dataclasses.replace(t, labels=one.labels, chosen=np.zeros(3, dtype=int),
                                        predictions=t.predictions[:1]))
        for label, (ts, t) in runs.items()
    }
    report = compare_report(one, average, runs)
    np.testing.assert_array_equal(report.fits[:, IDEAL], report.fits[:, 0])
    assert report.accuracy == 1.0


def test_ideal_fit_tie():
    report = _pinned_report()
    c1, c2 = report.fits[0, 0], report.fits[0, 1]
    assert c1 == c2 == report.fits[0, IDEAL]


def test_indicator_hits_and_misses(tmp_path):
    report = _pinned_report()
    assert report.hits.tolist() == [True, False]
    write_report_csv(report, tmp_path / "report.csv")
    rows = (tmp_path / "report.csv").read_text().splitlines()[2:]
    assert [r.split(",")[-2:] for r in rows] == [["C2", "1"], ["C2", "0"]]


def test_indicator_tie_counts_as_correct():
    # on O1, the pinned picks choose C2 and the other picks C1, the two tied best members
    for picks in (PINNED_PICKS, OTHER_PICKS):
        g, average, runs = _pinned_case(picks)
        report = compare_report(g, average, {"O1": runs["O1"]})
        assert report.accuracy == 1.0


def test_accuracy_values():
    assert _pinned_report().accuracy == 0.5
    other = _pinned_report(OTHER_PICKS)
    assert (other.chosen, other.accuracy) == (("C1", "C1"), 1.0)
    g, average, runs = _pinned_case()
    worst = {label: (ts, dataclasses.replace(t, chosen=np.full(3, 2)))
             for label, (ts, t) in runs.items()}
    report = compare_report(g, average, worst)
    assert report.accuracy == 0.0
