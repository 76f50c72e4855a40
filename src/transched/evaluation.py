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

from .dataset import TimeSeriesSet, write_table
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


# eq=False: == is identity, as a generated __eq__ cannot compare the ndarray field
@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """FIT of every estimator on every online record."""

    conditions: tuple[str, ...]  # one per record
    member_labels: tuple[str, ...]
    fits: np.ndarray  # (records, members + 3): members, then average, scheduled, ideal
    chosen: tuple[str, ...]  # the scheduled variant's majority label per record
    accuracies: dict[str, float]  # per classifier variant

    def column(self, name: str) -> np.ndarray:
        """FIT values across conditions for one estimator column."""
        keys = [*self.member_labels, "average", "scheduled", "ideal"]
        return self.fits[:, keys.index(name)].copy()

    def summary(self) -> list[tuple[str, float, float]]:
        """(estimator, mean FIT, std FIT) rows, members first."""
        names = [f"G_{lab}" for lab in self.member_labels] + ["average", "scheduled", "ideal"]
        # each column contiguous, so its mean and std sum as a 1-d array's do
        return [
            (name, float(col.mean()), float(col.std()))
            for name, col in zip(names, self.fits.T.copy())
        ]


def compare_report(
    g: TransmissibilityFamily,
    average: FirModel,
    records: Sequence[TimeSeriesSet],
    variant_traces: Mapping[str, Mapping[str, ScheduleTrace]],
    predictions: Mapping[str, np.ndarray],
    scheduled_variant: str = "full",
) -> ComparisonReport:
    """Score every estimator on every online record.

    ``records`` need ground truth in their target channel and a unique
    ``condition_label``.  ``variant_traces`` maps classifier-variant name
    (e.g. "full", "pooled") to per-condition schedule traces; every
    variant yields an accuracy, and ``scheduled_variant`` selects the one
    reported in the scheduled-FIT column and in ``chosen``.
    Every estimator of a record is scored on the samples that variant's
    trace covers, so a trailing window too short to classify drops out of
    all FITs alike and the ideal FIT bounds the scheduled one.

    ``predictions`` maps every condition label to the whole-record
    predictions of ``g``'s members on that record, one row per member, as
    ``predict_record`` gives them.
    """
    if scheduled_variant not in variant_traces:
        raise DataError(f"no traces for scheduled variant {scheduled_variant!r}")
    if not records:
        raise DataError("the comparison report needs at least one record")
    q = len(g)
    fits = np.empty((len(records), q + 3))
    hits = dict.fromkeys(variant_traces, 0)
    chosen = []
    order = g.order
    for i, ts in enumerate(records):
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
        row = fits[i]
        for k, p in enumerate(predictions[label]):
            row[k] = fit_metric(measured, p[covered[order:]])
        row[q] = fit_metric(measured, predict_record(average, ts)[covered[order:]])
        row[q + 1] = fit_metric(measured, trace.estimates[covered])
        row[q + 2] = row[:q].max()
        for variant, traces in variant_traces.items():
            majority = g.labels.index(traces[label].majority_label())
            hits[variant] += bool(row[majority] == row[q + 2])  # a tie is a hit
        chosen.append(trace.majority_label())
    return ComparisonReport(
        conditions=tuple(ts.condition_label for ts in records),
        member_labels=g.labels,
        fits=fits,
        chosen=tuple(chosen),
        accuracies={v: n / len(records) for v, n in hits.items()},
    )


def write_report_csv(report: ComparisonReport, path: str | os.PathLike) -> None:
    q = len(report.member_labels)
    chosen = [report.member_labels.index(lab) for lab in report.chosen]
    # the indicator: the chosen member has the ideal FIT (a tie counts)
    hit = report.fits[np.arange(len(chosen)), chosen] == report.fits[:, q + 2]
    header = (
        ["condition"]
        + [f"FIT_G{k + 1}" for k in range(q)]
        + ["FIT_avg", "FIT_scheduled", "FIT_ideal", "chosen_q", "indicator"]
    )
    columns = [report.conditions, *report.fits.T, report.chosen, hit.astype(int)]
    write_table(path, header, columns, REPORT_FORMAT)


def write_summary_csv(report: ComparisonReport, path: str | os.PathLike) -> None:
    names, means, stds = zip(*report.summary())
    columns = [names, np.array(means), np.array(stds)]
    write_table(path, ["estimator", "mean_fit", "std_fit"], columns, SUMMARY_FORMAT)


def write_accuracy_csv(report: ComparisonReport, path: str | os.PathLike) -> None:
    variants = sorted(report.accuracies)
    accuracies = np.array([report.accuracies[v] for v in variants])
    write_table(path, ["classifier", "accuracy"], [variants, accuracies], ACCURACY_FORMAT)
