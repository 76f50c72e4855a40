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
from typing import Mapping

import numpy as np

from .dataset import TimeSeriesSet, write_table
from .errors import DataError
from .scheduler import ScheduleTrace
from .transmissibility import FirModel, TransmissibilityFamily, predict_record

REPORT_FORMAT = "transched-report v1"
SUMMARY_FORMAT = "transched-report-summary v1"
ACCURACY_FORMAT = "transched-report-accuracy v2"


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


# eq=False: == is identity, as a generated __eq__ cannot compare the ndarray fields
@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """FIT of every estimator on every online record."""

    conditions: tuple[str, ...]  # one per record
    member_labels: tuple[str, ...]
    fits: np.ndarray  # (records, members + 3): members, then average, scheduled, ideal
    chosen: tuple[str, ...]  # the trace's majority label per record
    hits: np.ndarray  # per record: the chosen member has the ideal FIT (a tie counts)

    @property
    def accuracy(self) -> float:  # share of records whose majority label has the ideal FIT
        return float(self.hits.mean())

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
    runs: Mapping[str, tuple[TimeSeriesSet, ScheduleTrace]],
) -> ComparisonReport:
    """Score every estimator on every online record.

    ``runs`` maps each record's condition label to the record, which needs
    ground truth in its target channel, and its schedule trace, which gives
    the members' predictions, the scheduled-FIT column, the majority label
    in ``chosen`` and the accuracy.  Every estimator of a record is scored
    on the samples that trace covers, so a trailing window too short to
    classify drops out of all FITs alike and the ideal FIT bounds the
    scheduled one.
    """
    if not runs:
        raise DataError("the comparison report needs at least one record")
    q = len(g)
    fits = np.empty((len(runs), q + 3))
    hits = np.empty(len(runs), dtype=bool)
    chosen = []
    order = g.order
    for i, (label, (ts, trace)) in enumerate(runs.items()):
        if g.output_channel_name not in ts.names:
            raise DataError(f"record {label!r} is missing ground truth for the target")
        covered = np.isfinite(trace.estimates)
        if not np.any(covered):
            raise DataError(f"trace for {label!r} contains no estimates")
        measured = ts.channel(g.output_channel_name)[covered]
        row = fits[i]
        row[:q] = [fit_metric(measured, p[covered[order:]]) for p in trace.predictions]
        row[q] = fit_metric(measured, predict_record(average, ts)[covered[order:]])
        row[q + 1] = fit_metric(measured, trace.estimates[covered])
        row[q + 2] = row[:q].max()
        chosen.append(trace.majority_label())
        hits[i] = row[g.labels.index(chosen[-1])] == row[q + 2]  # a tie is a hit
    return ComparisonReport(
        conditions=tuple(runs),
        member_labels=g.labels,
        fits=fits,
        chosen=tuple(chosen),
        hits=hits,
    )


def write_report_csv(report: ComparisonReport, path: str | os.PathLike) -> None:
    q = len(report.member_labels)
    header = (
        ["condition"]
        + [f"FIT_G{k + 1}" for k in range(q)]
        + ["FIT_avg", "FIT_scheduled", "FIT_ideal", "chosen_q", "indicator"]
    )
    columns = [report.conditions, *report.fits.T, report.chosen, report.hits.astype(int)]
    write_table(path, header, columns, REPORT_FORMAT)


def write_summary_csv(report: ComparisonReport, path: str | os.PathLike) -> None:
    names, means, stds = zip(*report.summary())
    columns = [names, np.array(means), np.array(stds)]
    write_table(path, ["estimator", "mean_fit", "std_fit"], columns, SUMMARY_FORMAT)


def write_accuracy_csv(report: ComparisonReport, path: str | os.PathLike) -> None:
    write_table(path, ["accuracy"], [np.array([report.accuracy])], ACCURACY_FORMAT)
