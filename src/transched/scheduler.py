"""Windowed Bayes classification and scheduled output estimation.

The online record is cut into fixed-length windows.  Within each window
the auxiliary models compete on their regression evidence

    L_q = log p(H_q) - N log(sigma_q) - ||y - Phi theta_q||^2 / (2 sigma_q^2)

with N the number of regression rows the window yields.  The winning
condition's primary model then estimates the target over that window.
Classification uses in-window rows only, so windows stay independent.
``classify`` scores one window; ``schedule_estimate`` scores all windows
of a record at once from each auxiliary model's whole-record
``predict``, with no BLAS call, and agrees with ``classify`` to
|dL| <= 1e-12 * max(1, |L|) and |d posterior| <= 1e-12, with the same
choice and ambiguity flag unless the deciding gap is within that bound.
A scheduled sample's estimate is the chosen primary model's whole-record
prediction at that sample, bit-identical to ``predict_record``: its lags
reach back across window boundaries, so every sample after the record's
first ``order`` samples gets an estimate.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import TimeSeriesSet, build_regressor, write_table
from .errors import ConfigError, DataError, NumericalError
from .transmissibility import FirModel, TransmissibilityFamily, predict, predict_record

# Windows whose two best log-evidences are closer than this are flagged
# ambiguous in the trace; they typically straddle a dynamics switch.
AMBIGUITY_NATS = 2.0

WINDOW_TRACE_FORMAT = "transched-window-trace v2"
SAMPLE_TRACE_FORMAT = "transched-sample-trace v2"


@dataclass(frozen=True, eq=False)
class Prior:
    """Prior probabilities over the family members, in label order.

    A weight of exactly zero permanently excludes a member.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float).ravel()
        object.__setattr__(self, "weights", w)
        if w.size < 1:
            raise ConfigError("prior needs at least one weight")
        if not np.isfinite(w).all():
            raise ConfigError(f"prior weights must be finite, got {w}")
        if np.any(w < 0):
            raise ConfigError(f"prior weights must be non-negative, got {w}")
        if abs(float(w.sum()) - 1.0) > 1.0e-12:
            raise ConfigError(f"prior weights must sum to 1, got {float(w.sum())!r}")
        w.flags.writeable = False

    @staticmethod
    def uniform(q: int) -> "Prior":
        if q < 1:
            raise ConfigError(f"prior needs at least one member, got {q}")
        return Prior(weights=np.full(q, 1.0 / q))

    @staticmethod
    def from_weights(weights) -> "Prior":
        """Normalize arbitrary non-negative weights into a prior.  Errors show
        the weights as given."""
        w = np.asarray(weights, dtype=float).ravel()
        if not np.isfinite(w).all():
            raise ConfigError(f"prior weights must be finite, got {weights}")
        if np.any(w < 0):
            raise ConfigError(f"prior weights must be non-negative, got {weights}")
        with np.errstate(over="ignore"):  # an overflowing sum is rejected below
            total = float(w.sum())
        if not 0 < total < math.inf:
            raise ConfigError(f"prior weights must have a finite positive sum, got {weights}")
        return Prior(weights=w / total)


@dataclass(frozen=True, eq=False)
class PosteriorResult:
    """Per-window classification outcome."""

    window_id: int
    log_evidence: np.ndarray
    posterior: np.ndarray
    chosen: int
    ambiguous: bool = False


# eq=False: == is identity, as a generated __eq__ cannot compare the ndarray fields
@dataclass(frozen=True, eq=False)
class ScheduleTrace:
    """Online-stage output: per-window arrays, per-sample member and estimate."""

    labels: tuple[str, ...]
    log_evidence: np.ndarray  # (windows, members)
    chosen: np.ndarray  # member index per classified window
    ambiguous: np.ndarray  # bool per classified window
    starts: np.ndarray  # 0-based first sample per classified window
    stops: np.ndarray  # 0-based end (exclusive) per classified window
    skipped: tuple[tuple[int, int, int], ...]  # (window_id, start, stop) too short
    member: np.ndarray  # chosen member per sample, -1 where no window covers it
    estimates: np.ndarray  # NaN where no estimate exists

    @property
    def posterior(self) -> np.ndarray:
        """(windows, members) posteriors, derived from ``log_evidence`` on access."""
        return _posterior_rows(self.log_evidence)

    @property
    def windows(self) -> tuple[PosteriorResult, ...]:
        """Per-window results as ``classify`` gives them, derived on access."""
        posterior = self.posterior
        return tuple(
            PosteriorResult(i + 1, self.log_evidence[i], posterior[i], c, a)
            for i, (c, a) in enumerate(zip(self.chosen.tolist(), self.ambiguous.tolist()))
        )

    def chosen_labels(self) -> list[str]:
        return [self.labels[k] for k in self.chosen.tolist()]

    def majority_label(self) -> str:
        """Most frequent window choice; ties go to the earliest family label."""
        if not self.chosen.size:
            raise DataError("trace has no classified windows")
        return self.labels[int(np.bincount(self.chosen, minlength=len(self.labels)).argmax())]


def pooled_sigma2(h: TransmissibilityFamily) -> float:
    """Degrees-of-freedom weighted mean of the members' residual variances."""
    total_dof = sum(m.dof for m in h.models)
    if total_dof <= 0:
        raise DataError("pooled variance needs positive degrees of freedom")
    return sum(m.dof * m.sigma2 for m in h.models) / total_dof


def log_evidence(
    h: FirModel,
    y_i1: np.ndarray,
    y_i2: np.ndarray,
    prior_q: float,
    sigma2: float | None = None,
) -> float:
    """Log evidence of one auxiliary model on one window.

    ``sigma2`` overrides the model's own residual variance (used by the
    pooled-variance classifier variant).  A zero prior excludes the
    member outright.
    """
    if prior_q < 0:
        raise ConfigError(f"prior must be non-negative, got {prior_q}")
    if prior_q == 0.0:
        return -math.inf
    m = build_regressor(y_i1, y_i2, h.order)
    r = m.y - m.phi @ h.theta
    rss = float(r @ r)
    n_rows = m.n_rows
    s2 = h.sigma2 if sigma2 is None else sigma2
    if s2 <= 0.0:
        if rss == 0.0:
            return math.inf  # perfect model with zero variance dominates
        warnings.warn(
            "auxiliary model has zero residual variance but a nonzero window "
            "residual; treating its evidence as -inf",
            RuntimeWarning,
            stacklevel=2,
        )
        return -math.inf
    quad = rss / (2.0 * s2)  # overflows to inf for tiny s2, giving L = -inf
    return math.log(prior_q) - 0.5 * n_rows * math.log(s2) - quad


def _posterior_from_log(levidence: np.ndarray) -> np.ndarray:
    finite = np.isfinite(levidence)
    post = np.zeros_like(levidence)
    if np.any(levidence == math.inf):
        at_top = levidence == math.inf
        post[at_top] = 1.0 / at_top.sum()
        return post
    if not np.any(finite):
        raise NumericalError("no admissible model: all log evidences are -inf")
    shifted = levidence[finite] - levidence[finite].max()
    expv = np.exp(shifted)
    post[finite] = expv / expv.sum()
    return post


def classify(
    h: TransmissibilityFamily,
    window: TimeSeriesSet,
    prior: Prior,
    pooled: bool = False,
    window_id: int = 1,
) -> PosteriorResult:
    """Pick the active condition for one window of online data."""
    if prior.weights.size != len(h):
        raise ConfigError(
            f"prior has {prior.weights.size} weights for {len(h)} family members"
        )
    if window.n_samples <= h.order:
        raise DataError(
            f"window of {window.n_samples} samples is too short for order "
            f"{h.order}; need at least {h.order + 1}"
        )
    y_i1 = window.channels(h.input_channel_names)
    y_i2 = window.channel(h.output_channel_name)
    s2 = pooled_sigma2(h) if pooled else None
    levidence = np.array(
        [
            log_evidence(m, y_i1, y_i2, float(prior.weights[k]), sigma2=s2)
            for k, m in enumerate(h.models)
        ]
    )
    posterior = _posterior_from_log(levidence)
    chosen = int(np.argmax(levidence))  # first index wins ties
    finite = np.sort(levidence[np.isfinite(levidence)])[::-1]
    ambiguous = finite.size >= 2 and (finite[0] - finite[1]) < AMBIGUITY_NATS
    return PosteriorResult(
        window_id=window_id,
        log_evidence=levidence,
        posterior=posterior,
        chosen=chosen,
        ambiguous=ambiguous,
    )


def schedule_estimate(
    g: TransmissibilityFamily,
    h: TransmissibilityFamily,
    online: TimeSeriesSet,
    prior: Prior,
    window_len: int,
    pooled: bool = False,
    predictions: np.ndarray | None = None,
    rss: np.ndarray | None = None,
) -> ScheduleTrace:
    """Classify every window and estimate the target with the chosen model.

    The record is cut into consecutive windows of ``window_len`` samples;
    a trailing remainder is its own window.  All windows are classified
    at once from ``window_rss``.  The result agrees with ``classify`` on
    each window to |dL| <= 1e-12 * max(1, |L|) in log evidence and 1e-12
    in posterior; the choice and the ambiguity flag are the same unless
    ``classify``'s deciding gap is within that bound.

    Each chosen primary model predicts the whole record once, through
    ``predict_record``; a classified window copies that prediction over its
    samples from ``max(start, order)`` on.  A scheduled estimate is thus
    bit-identical to the chosen model's whole-record prediction at that
    sample, with lags that reach back across window boundaries.

    ``predictions`` may supply those whole-record predictions, one row per
    member of ``g``, as ``predict_record`` gives them, and ``rss`` the
    record's ``window_rss``; a caller that schedules the same record more
    than once then predicts it only once.

    A trailing window of order samples or fewer cannot be classified; it
    is recorded under ``skipped`` and contributes no estimates.
    """
    if g.labels != h.labels:
        raise DataError("primary and auxiliary families must share labels")
    if g.order != h.order:
        raise DataError("primary and auxiliary families must share the FIR order")
    if prior.weights.size != len(h):
        raise ConfigError(
            f"prior has {prior.weights.size} weights for {len(h)} family members"
        )
    order = g.order
    m = online.n_samples
    starts, stops, skipped = _cut_windows(m, window_len, order)
    for name in g.input_channel_names:
        if name not in online.names:
            raise DataError(f"online record is missing channel {name!r}")
    for name, given_, shape in (
        ("predictions", predictions, (len(g), m - order)),
        ("rss", rss, (starts.size, len(h))),
    ):
        if given_ is not None and given_.shape != shape:
            raise DataError(
                f"{name} have shape {given_.shape}; expected {shape} for "
                f"{len(g)} members over {m} samples"
            )
    if rss is None:
        rss = window_rss(h, online, window_len)
    levidence = _window_log_evidence(h, prior, pooled, rss, stops - starts - order)
    if np.any(levidence.max(axis=1) == -math.inf):
        raise NumericalError("no admissible model: all log evidences are -inf")
    chosen = np.argmax(levidence, axis=1)  # first index wins ties
    member = np.full(m, -1)
    member[: stops[-1] if stops.size else 0] = np.repeat(chosen, stops - starts)
    estimates = np.full(m, math.nan)
    for k in sorted(set(chosen.tolist())):
        preds = predict_record(g.models[k], online) if predictions is None else predictions[k]
        pick = member[order:] == k
        estimates[order:][pick] = preds[pick]
    return ScheduleTrace(
        labels=g.labels,
        log_evidence=levidence,
        chosen=chosen,
        ambiguous=_ambiguous_rows(levidence),
        starts=starts,
        stops=stops,
        skipped=skipped,
        member=member,
        estimates=estimates,
    )


def _cut_windows(m: int, window_len: int, order: int):
    """0-based starts and stops of a record's classifiable windows, and the
    trailing window of ``order`` samples or fewer that is skipped, if any."""
    if window_len <= order:
        raise ConfigError(
            f"window length {window_len} must exceed the FIR order {order}"
        )
    n_windows = -(-m // window_len)
    skipped: tuple[tuple[int, int, int], ...] = ()
    if m - (n_windows - 1) * window_len <= order:
        n_windows -= 1
        skipped = ((n_windows + 1, n_windows * window_len, m),)
    starts = window_len * np.arange(n_windows)
    return starts, np.minimum(starts + window_len, m), skipped


def window_rss(
    h: TransmissibilityFamily, online: TimeSeriesSet, window_len: int
) -> np.ndarray:
    """(windows, members) in-window residual sums of squares over the windows
    ``schedule_estimate`` classifies, from one whole-record ``predict`` per
    member; they serve both variance variants."""
    order = h.order
    starts, stops, _ = _cut_windows(online.n_samples, window_len, order)
    rss = np.zeros((starts.size, len(h)))
    if not starts.size:
        return rss
    covered = int(stops[-1])
    drivers = online.channels(h.input_channel_names)[:, :covered]
    aux = online.channel(h.output_channel_name)
    # a window's first order rows have lags outside it and do not count
    burn_in = np.arange(covered) % window_len < order
    for k, mod in enumerate(h.models):
        sq = np.zeros(covered)
        sq[order:] = (aux[order:covered] - predict(mod, drivers)) ** 2
        sq[burn_in] = 0.0
        rss[:, k] = np.add.reduceat(sq, starts)
    return rss


def _window_log_evidence(
    h: TransmissibilityFamily, prior: Prior, pooled: bool, rss: np.ndarray, n_rows: np.ndarray
) -> np.ndarray:
    """(windows, members) log evidences, by the rules of ``log_evidence``,
    from each window's residual sums ``rss`` over its ``n_rows`` rows."""
    if pooled:
        s2 = np.full(len(h), pooled_sigma2(h))
    else:
        s2 = np.array([mod.sigma2 for mod in h.models])
    weights = prior.weights
    # scalar logs keep each term bit-identical to log_evidence's
    log_p = np.array([math.log(w) if w > 0 else -math.inf for w in weights])
    log_s2 = np.array([math.log(v) if v > 0 else 0.0 for v in s2])
    with np.errstate(over="ignore"):  # tiny s2 overflows quad to inf: L = -inf
        quad = rss / (2.0 * np.where(s2 > 0, s2, 1.0))
    levidence = log_p - (0.5 * n_rows)[:, None] * log_s2 - quad
    degenerate = (s2 <= 0) & (weights > 0)
    if degenerate.any():
        exact = rss == 0.0
        if np.any(degenerate & ~exact):
            warnings.warn(
                "auxiliary model has zero residual variance but a nonzero window "
                "residual; treating its evidence as -inf",
                RuntimeWarning,
                stacklevel=3,
            )
        # a perfect model with zero variance dominates; any residual excludes it
        levidence = np.where(
            degenerate, np.where(exact, math.inf, -math.inf), levidence
        )
    return levidence


def _posterior_rows(levidence: np.ndarray) -> np.ndarray:
    """Row-wise ``_posterior_from_log``: a max-shifted softmax over the
    finite evidences, or an even split over the +inf ones.  Every row must
    hold an evidence above -inf, as ``schedule_estimate`` checks."""
    top = levidence.max(axis=1, keepdims=True)
    at_top = levidence == math.inf
    with np.errstate(invalid="ignore"):  # inf - inf in rows replaced below
        expv = np.exp(levidence - top)
        post = expv / expv.sum(axis=1, keepdims=True)
    top_rows = at_top.any(axis=1)
    if top_rows.any():
        hits = at_top[top_rows]
        post[top_rows] = hits / hits.sum(axis=1, keepdims=True)
    return post


def _ambiguous_rows(levidence: np.ndarray) -> np.ndarray:
    """Whether each row's two best finite evidences lie within AMBIGUITY_NATS."""
    if levidence.shape[1] < 2:
        return np.zeros(levidence.shape[0], dtype=bool)
    finite = np.where(np.isfinite(levidence), levidence, -math.inf)
    second, first = np.sort(finite, axis=1)[:, -2:].T
    return np.isfinite(second) & (first - second < AMBIGUITY_NATS)


def write_window_trace(trace: ScheduleTrace, path: str | os.PathLike) -> None:
    """Per-window CSV: id, 1-based sample range, choice, log evidences and
    ambiguity flag.  The posteriors are not written: ``_posterior_rows`` of
    the evidences, which round-trip exactly, gives them back bit for bit."""
    header = (
        ["window_id", "start_sample", "end_sample", "chosen_label"]
        + [f"L_{k + 1}" for k in range(len(trace.labels))]
        + ["ambiguous"]
    )
    columns = [
        np.arange(1, trace.chosen.size + 1),
        trace.starts + 1,
        trace.stops,
        np.array(trace.labels, dtype=object)[trace.chosen],
        *trace.log_evidence.T,
        trace.ambiguous.astype(int),
    ]
    write_table(path, header, columns, WINDOW_TRACE_FORMAT)


def write_sample_trace(trace: ScheduleTrace, path: str | os.PathLike) -> None:
    """Per-sample CSV: chosen label and estimate (empty where no window covers
    the sample).  The measured target is the input's own row, so it is not
    written again."""
    # member -1, no window, gets the empty label
    labels = np.array([*trace.labels, ""], dtype=object)[trace.member]
    header = ["sample_index", "chosen_label", "y_O_estimated"]
    columns = [np.arange(1, trace.member.size + 1), labels, trace.estimates]
    write_table(path, header, columns, SAMPLE_TRACE_FORMAT)
