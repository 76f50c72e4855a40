"""Estimation-quality metrics and multi-estimator comparison reports.

FIT is the usual normalized measure: 100% for a perfect reconstruction,
0% for the constant mean predictor, negative when the estimate is worse
than that.  The comparison report scores, per online condition, each
per-condition primary model, the single pooled-data model, and the
scheduled estimator, next to the best achievable single-model FIT, all
on the samples the scheduled estimator covers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import TimeSeriesSet
from .errors import DataError
from .scheduler import ScheduleTrace
from .transmissibility import FirModel, TransmissibilityFamily, predict_record

REPORT_FORMAT = "transched-report v1"
SUMMARY_FORMAT = "transched-report-summary v1"
ACCURACY_FORMAT = "transched-report-accuracy v1"


def fit_metric(y: np.ndarray, y_hat: np.ndarray) -> float:
    """FIT in percent: 100 (1 - ||y - y_hat|| / ||y - mean(y)||)."""
    y = np.asarray(y, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    if y.shape != y_hat.shape:
        raise DataError(f"length mismatch: {y.shape[0]} measured vs {y_hat.shape[0]} estimated")
    if y.shape[0] < 2:
        raise DataError("FIT needs at least 2 samples")
    # norms from numpy's pairwise sum, not a BLAS dot product, so the FIT
    # does not depend on the BLAS kernel
    d = y - y.mean()
    denom = math.sqrt(float(np.sum(d * d)))
    if denom == 0.0:
        raise DataError("FIT is undefined for a constant measured signal")
    e = y - y_hat
    return 100.0 * (1.0 - math.sqrt(float(np.sum(e * e))) / denom)


def ideal_fit(fits: Sequence[float]) -> float:
    """Best single-model FIT for one condition."""
    if len(fits) == 0:
        raise DataError("ideal FIT needs at least one estimator")
    return max(fits)


def indicator(chosen: int, fits: Sequence[float]) -> int:
    """1 when the chosen index attains the best FIT (ties count as correct)."""
    if not 0 <= chosen < len(fits):
        raise DataError(f"chosen index {chosen} out of range for {len(fits)} estimators")
    return 1 if fits[chosen] == max(fits) else 0


def accuracy(indicators: Sequence[int]) -> float:
    """Fraction of conditions where the classifier chose a best estimator."""
    if len(indicators) == 0:
        raise DataError("accuracy needs at least one indicator")
    return float(np.mean(indicators))


@dataclass(frozen=True)
class ReportRow:
    condition: str
    member_fits: tuple[float, ...]
    fit_average: float
    fit_scheduled: float
    fit_ideal: float
    chosen: str
    indicator: int


@dataclass(frozen=True)
class ComparisonReport:
    member_labels: tuple[str, ...]
    rows: tuple[ReportRow, ...]
    accuracies: dict[str, float]  # per classifier variant

    def column(self, name: str) -> np.ndarray:
        """FIT values across conditions for one estimator column."""
        if name in self.member_labels:
            k = self.member_labels.index(name)
            return np.array([r.member_fits[k] for r in self.rows])
        attr = {"average": "fit_average", "scheduled": "fit_scheduled", "ideal": "fit_ideal"}
        return np.array([getattr(r, attr[name]) for r in self.rows])

    def summary(self) -> list[tuple[str, float, float]]:
        """(estimator, mean FIT, std FIT) rows, members first."""
        names = [f"G_{lab}" for lab in self.member_labels] + ["average", "scheduled", "ideal"]
        keys = list(self.member_labels) + ["average", "scheduled", "ideal"]
        out = []
        for name, key in zip(names, keys):
            col = self.column(key)
            out.append((name, float(col.mean()), float(col.std())))
        return out


def compare_report(
    g: TransmissibilityFamily,
    average: FirModel,
    records: Sequence[TimeSeriesSet],
    variant_traces: Mapping[str, Mapping[str, ScheduleTrace]],
    scheduled_variant: str = "full",
    predictions: Mapping[str, np.ndarray] | None = None,
) -> ComparisonReport:
    """Score every estimator on every online record.

    ``records`` need ground truth in their target channel and a unique
    ``condition_label``.  ``variant_traces`` maps classifier-variant name
    (e.g. "full", "pooled") to per-condition schedule traces; every
    variant yields an accuracy, and ``scheduled_variant`` selects the one
    reported in the scheduled-FIT column and the chosen/indicator fields.
    Every estimator of a record is scored on the samples that variant's
    trace covers, so a trailing window too short to classify drops out of
    all FITs alike and the ideal FIT bounds the scheduled one.

    ``predictions`` optionally maps every condition label to the
    whole-record predictions of ``g``'s members on that record, one row
    per member, as ``predict_record`` gives them.
    """
    if scheduled_variant not in variant_traces:
        raise DataError(f"no traces for scheduled variant {scheduled_variant!r}")
    rows = []
    indicators: dict[str, list[int]] = {v: [] for v in variant_traces}
    order = g.order
    for ts in records:
        label = ts.condition_label
        if label is None:
            raise DataError("every online record needs a condition_label")
        if ts.target_name is None:
            raise DataError(f"record {label!r} is missing ground truth for the target")
        for variant, traces in variant_traces.items():
            if label not in traces:
                raise DataError(f"no {variant!r} trace for condition {label!r}")
        trace = variant_traces[scheduled_variant][label]
        covered = np.isfinite(trace.estimates)
        if not np.any(covered):
            raise DataError(f"trace for {label!r} contains no estimates")
        measured = ts.target()[covered]
        if predictions is None:
            member_preds = (predict_record(m, ts) for m in g.models)
        else:
            member_preds = predictions[label]
        member_fits = tuple(fit_metric(measured, p[covered[order:]]) for p in member_preds)
        fit_avg = fit_metric(measured, predict_record(average, ts)[covered[order:]])
        majority = {v: traces[label].majority_label() for v, traces in variant_traces.items()}
        for variant, chosen in majority.items():
            indicators[variant].append(indicator(g.labels.index(chosen), member_fits))
        rows.append(
            ReportRow(
                condition=label,
                member_fits=member_fits,
                fit_average=fit_avg,
                fit_scheduled=fit_metric(measured, trace.estimates[covered]),
                fit_ideal=ideal_fit(member_fits),
                chosen=majority[scheduled_variant],
                indicator=indicators[scheduled_variant][-1],
            )
        )
    accuracies = {v: accuracy(inds) for v, inds in indicators.items()}
    return ComparisonReport(
        member_labels=g.labels, rows=tuple(rows), accuracies=accuracies
    )


def write_report_csv(report: ComparisonReport, path: str | os.PathLike) -> None:
    q = len(report.member_labels)
    header = (
        ["condition"]
        + [f"FIT_G{k + 1}" for k in range(q)]
        + ["FIT_avg", "FIT_scheduled", "FIT_ideal", "chosen_q", "indicator"]
    )
    with open(path, "w", newline="") as f:
        f.write(f"# format: {REPORT_FORMAT}\n")
        f.write(",".join(header) + "\n")
        for r in report.rows:
            cells = [r.condition]
            cells += [repr(float(v)) for v in r.member_fits]
            cells += [
                repr(float(r.fit_average)),
                repr(float(r.fit_scheduled)),
                repr(float(r.fit_ideal)),
                r.chosen,
                str(r.indicator),
            ]
            f.write(",".join(cells) + "\n")


def write_summary_csv(report: ComparisonReport, path: str | os.PathLike) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# format: {SUMMARY_FORMAT}\n")
        f.write("estimator,mean_fit,std_fit\n")
        for name, mean, std in report.summary():
            f.write(f"{name},{repr(mean)},{repr(std)}\n")


def write_accuracy_csv(report: ComparisonReport, path: str | os.PathLike) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# format: {ACCURACY_FORMAT}\n")
        f.write("classifier,accuracy\n")
        for variant in sorted(report.accuracies):
            f.write(f"{variant},{repr(float(report.accuracies[variant]))}\n")
