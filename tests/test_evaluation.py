import numpy as np
import pytest

from transched.dataset import Decomposition
from transched.errors import DataError
from transched.evaluation import (
    accuracy,
    compare_report,
    fit_metric,
    ideal_fit,
    indicator,
    write_accuracy_csv,
    write_report_csv,
    write_summary_csv,
)
from transched.scheduler import Prior, schedule_estimate
from transched.transmissibility import fit_average, predict_record, train_families

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


# ----------------------------------------------------- ideal fit / indicator


def test_ideal_fit_is_max():
    assert ideal_fit([60.0, 72.0, 40.0]) == 72.0


def test_ideal_fit_single():
    assert ideal_fit([55.0]) == 55.0


def test_ideal_fit_tie():
    assert ideal_fit([70.0, 70.0, 40.0]) == 70.0


def test_indicator_hits_and_misses():
    fits = [60.0, 72.0, 40.0]
    assert indicator(1, fits) == 1
    assert indicator(2, fits) == 0


def test_indicator_tie_counts_as_correct():
    assert indicator(0, [70.0, 70.0, 40.0]) == 1
    assert indicator(1, [70.0, 70.0, 40.0]) == 1


def test_accuracy_values():
    assert accuracy([1, 1, 1]) == 1.0
    assert accuracy([0, 0]) == 0.0
    assert accuracy([1, 0, 1, 0]) == 0.5
    assert 0.0 <= accuracy([1, 0, 1]) <= 1.0


# ------------------------------------------------------------ compare_report


def _study(systems, n_online):
    g, avg, online, traces = _scheduled_study(systems, n_online)
    report = compare_report(g, avg, online, {"full": traces})
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
    import dataclasses

    return dataclasses.replace(ts, condition_label=label)


def test_report_row_per_condition(study):
    _, _, online, report = study
    assert len(report.rows) == len(online)
    assert [r.condition for r in report.rows] == ["O1", "O2"]


def test_report_scheduled_matches_member_on_clean_matched_data(study):
    g, _, _, report = study
    # online O1 is condition C1 exactly and every window picks C1, so the
    # scheduled estimator is G_C1 itself: its FIT equals the member FIT exactly
    row = report.rows[0]
    member_fit = row.member_fits[g.labels.index("C1")]
    assert row.fit_scheduled == member_fit
    assert row.chosen == "C1" and row.indicator == 1


def test_report_ideal_dominates(study):
    _, _, _, report = study
    for row in report.rows:
        assert row.fit_ideal == max(row.member_fits)
        assert row.fit_ideal >= row.fit_scheduled
        assert row.fit_ideal >= row.fit_average


def test_report_scores_ragged_records_on_covered_samples(ragged_study):
    g, _, _, report = ragged_study
    for row in report.rows:
        assert row.fit_ideal == max(row.member_fits)
        assert row.fit_ideal >= row.fit_scheduled
    # every O1 window picks C1, so scheduled and G_C1 are scored on the same samples
    row = report.rows[0]
    assert row.chosen == "C1"
    assert row.fit_scheduled == row.member_fits[g.labels.index("C1")]


def test_report_with_given_predictions_is_identical(quarter_car_systems):
    g, avg, online, traces = _scheduled_study(quarter_car_systems, 605)
    preds = {
        ts.condition_label: np.array([predict_record(m, ts) for m in g.models])
        for ts in online
    }
    own = compare_report(g, avg, online, {"full": traces})
    assert compare_report(g, avg, online, {"full": traces}, predictions=preds) == own


def test_report_accuracy_full_variant(study):
    _, _, _, report = study
    assert report.accuracies == {"full": 1.0}


def test_report_requires_ground_truth(study, quarter_car_systems):
    g, avg, online, _ = study
    import dataclasses

    from transched.dataset import PSEUDO_INPUT

    no_target = dataclasses.replace(
        online[0],
        roles=(PSEUDO_INPUT, PSEUDO_INPUT, PSEUDO_INPUT),
    )
    with pytest.raises(DataError, match="ground truth"):
        compare_report(g, avg, [no_target], {"full": {}})


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
