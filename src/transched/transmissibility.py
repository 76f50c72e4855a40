"""FIR transmissibility models and per-condition model families.

Two families are built offline from the same labeled records: the
primary family maps all pseudo-inputs to the target output (one model
per condition, used for estimation), and the auxiliary family maps the
remaining pseudo-inputs to a designated one (used online to recognize
the active condition).  A pooled-data "average" model, fitted to all
records at once for comparison studies, is solved from the summed normal
equations, so it holds one record's lag matrix at a time.  Prediction
sums shifted, scaled channels in a fixed order and makes no BLAS call,
so it gives the same bits under every BLAS kernel.  Families
persist to a JSON store with floats written as the shortest ``repr`` that
round-trips, so a reload is bit-exact.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .dataset import DEFAULT_C_LIM, Decomposition, TimeSeriesSet, build_regressor, lag_rows
from .errors import DataError

if TYPE_CHECKING:
    from .regression import RidgeSolution

PRIMARY = "primary"
AUXILIARY = "auxiliary"

STORE_VERSION = 1


@dataclass(frozen=True, eq=False)
class FirModel:
    """One fitted FIR map with its residual variance and fit metadata.

    ``theta`` has length input_dim * (order + 1), grouped per lag:
    [b_0' ... b_n'] with one block of input_dim coefficients per lag.
    """

    order: int
    input_dim: int
    theta: np.ndarray
    sigma2: float
    rho: float = 0.0
    kappa_after: float = math.inf
    dof: int = 0
    input_channel_names: tuple[str, ...] = ()
    output_channel_name: str = ""

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float).ravel()
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "input_channel_names", tuple(self.input_channel_names))
        if theta.shape[0] != self.input_dim * (self.order + 1):
            raise DataError(
                f"theta length {theta.shape[0]} does not match "
                f"input_dim*(order+1) = {self.input_dim * (self.order + 1)}"
            )
        if not np.isfinite(theta).all():
            raise DataError("theta must be finite")
        if not 0 <= self.sigma2 < math.inf:
            raise DataError(f"sigma2 must be finite and non-negative, got {self.sigma2}")
        if not 0 <= self.rho < math.inf:
            raise DataError(f"rho must be finite and non-negative, got {self.rho}")
        if self.dof < 0:
            raise DataError(f"dof must be non-negative, got {self.dof}")
        theta.flags.writeable = False


@dataclass(frozen=True, eq=False)
class TransmissibilityFamily:
    """Condition-indexed collection of structurally identical FIR models."""

    kind: str
    labels: tuple[str, ...]
    models: tuple[FirModel, ...]
    decomposition: Decomposition | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "models", tuple(self.models))
        if self.kind not in (PRIMARY, AUXILIARY):
            raise DataError(f"family kind must be primary or auxiliary, got {self.kind!r}")
        if not self.models:
            raise DataError("family must have at least one member")
        if len(self.labels) != len(self.models):
            raise DataError("labels and models must align")
        if len(set(self.labels)) != len(self.labels):
            raise DataError(f"duplicate condition labels: {self.labels}")
        first = self.models[0]
        for m in self.models:
            if (
                m.order != first.order
                or m.input_dim != first.input_dim
                or m.input_channel_names != first.input_channel_names
                or m.output_channel_name != first.output_channel_name
            ):
                raise DataError("family members must share order and channel layout")

    def __len__(self) -> int:
        return len(self.models)

    @property
    def order(self) -> int:
        return self.models[0].order

    @property
    def input_channel_names(self) -> tuple[str, ...]:
        return self.models[0].input_channel_names

    @property
    def output_channel_name(self) -> str:
        return self.models[0].output_channel_name

    def member(self, label: str) -> FirModel:
        try:
            return self.models[self.labels.index(label)]
        except ValueError:
            raise DataError(f"no family member labeled {label!r}") from None


def fit_fir(
    ts: TimeSeriesSet,
    inputs: Sequence[str],
    output: str,
    order: int,
    c_lim: float = DEFAULT_C_LIM,
) -> FirModel:
    """Fit one FIR map between named channels of a record."""
    from .regression import ridge_fit  # only training loads the ridge solver

    m = build_regressor(ts.channels(tuple(inputs)), ts.channel(output), order)
    return _fir_model(ridge_fit(m, c_lim), order, inputs, output)


def _fir_model(
    sol: RidgeSolution, order: int, inputs: Sequence[str], output: str
) -> FirModel:
    return FirModel(
        order=order,
        input_dim=len(inputs),
        theta=sol.theta,
        sigma2=sol.sigma2,
        rho=sol.rho,
        kappa_after=sol.kappa_after,
        dof=sol.dof,
        input_channel_names=tuple(inputs),
        output_channel_name=output,
    )


def predict(model: FirModel, y_i: np.ndarray) -> np.ndarray:
    """Apply a fitted model to pseudo-input data.

    Returns estimates for t = order..M-1 (length M - order); the first
    ``order`` samples only seed the lags.  Estimate t is the sum, in theta
    order, of theta[j] * y_i[c, t - k] with k, c = divmod(j, input_dim).
    Each term is an elementwise, correctly rounded product added in that
    fixed order, so the result does not depend on the BLAS kernel or thread
    count.  No lag matrix is built: the working set is two output-length
    arrays, whatever the order.
    """
    y_i = np.atleast_2d(np.asarray(y_i, dtype=float))
    if y_i.shape[0] != model.input_dim:
        raise DataError(
            f"model expects {model.input_dim} input channels, got {y_i.shape[0]}"
        )
    order = model.order
    m = y_i.shape[1]
    n = lag_rows(m, order)
    out = np.zeros(n)
    term = np.empty(n)
    for j, coef in enumerate(model.theta.tolist()):
        k, c = divmod(j, model.input_dim)
        np.multiply(y_i[c, order - k : m - k], coef, out=term)
        out += term
    return out


def predict_record(model: FirModel, ts: TimeSeriesSet) -> np.ndarray:
    """Predict from a record, picking the model's input channels by name."""
    return predict(model, ts.channels(model.input_channel_names))


def train_families(
    records: Sequence[TimeSeriesSet],
    d: Decomposition,
    order: int,
    c_lim: float = DEFAULT_C_LIM,
) -> tuple[TransmissibilityFamily, TransmissibilityFamily]:
    """Fit the primary and auxiliary family from labeled records.

    Each record must carry a unique ``condition_label`` and the same
    channel schema.  Per condition q, the primary member maps all
    pseudo-inputs to the target and the auxiliary member maps the
    drivers to the auxiliary output chosen by ``d``.
    """
    if not records:
        raise DataError("need at least one labeled record")
    labels = []
    for ts in records:
        if ts.condition_label is None:
            raise DataError("every training record needs a condition_label")
        labels.append(ts.condition_label)
    if len(set(labels)) != len(labels):
        raise DataError(f"duplicate condition labels: {labels}")
    schema = (records[0].names, records[0].roles)
    for ts in records[1:]:
        if (ts.names, ts.roles) != schema:
            raise DataError(
                f"record {ts.condition_label!r} channel schema {ts.names} does not "
                f"match {schema[0]}"
            )
    pseudo = records[0].pseudo_input_names
    target = records[0].target_name
    if target is None:
        raise DataError("training records need a target_output channel")
    i1_names, i2_name = d.split(pseudo)
    g_models = []
    h_models = []
    for ts in records:
        g_models.append(fit_fir(ts, pseudo, target, order, c_lim))
        h_models.append(fit_fir(ts, i1_names, i2_name, order, c_lim))
    g = TransmissibilityFamily(kind=PRIMARY, labels=tuple(labels), models=tuple(g_models))
    h = TransmissibilityFamily(
        kind=AUXILIARY, labels=tuple(labels), models=tuple(h_models), decomposition=d
    )
    return g, h


def fit_average(
    records: Sequence[TimeSeriesSet],
    inputs: Sequence[str],
    output: str,
    order: int,
    c_lim: float = DEFAULT_C_LIM,
) -> FirModel:
    """Fit one model to all conditions at once: the ridge fit of the
    row-stacked regressions of every record.

    The stacked problem is solved from its normal equations, the sums of
    the records' Gram matrices and right-hand sides, and its residual is
    summed record by record; only one record's lag matrix exists at a
    time, whatever the number of records.  One record gives exactly
    ``fit_fir``.  ``ridge_fit`` of the vstacked regression rounds the same
    sums in another order.  Its Gram eigenvalues then move by about
    (p + sqrt(N)) * eps * lambda_max, for p parameters and N rows in all
    (sqrt(N) from the sums, p from the eigensolver), and the cap rule
    divides that by c_lim - 1.  With e = (p + sqrt(N)) * eps * (c_lim + 1)
    / (c_lim - 1), the two fits agree as follows:

    - theta to a relative norm of e * kappa_after;
    - rho is 0 in both when the cap does not bind, else within
      e * lambda_max: a relative ~(p + sqrt(N)) * eps * c_lim at a large
      c_lim, the accuracy ``select_rho`` states;
    - dof exactly.
    """
    from .regression import ridge_fit_pooled

    if not records:
        raise DataError("need at least one record")
    inputs = tuple(inputs)

    def regressions():
        for ts in records:
            yield build_regressor(ts.channels(inputs), ts.channel(output), order)

    rows = sum(lag_rows(ts.n_samples, order) for ts in records)
    sol = ridge_fit_pooled(regressions, rows, len(inputs) * (order + 1), c_lim)
    return _fir_model(sol, order, inputs, output)


def _model_record(m: FirModel) -> dict:
    return {
        "theta": m.theta.tolist(),
        "sigma2": float(m.sigma2),
        "rho": float(m.rho),
        "kappa_after": float(m.kappa_after) if math.isfinite(m.kappa_after) else None,
        "dof": int(m.dof),
    }


def _model_from_record(
    rec: dict, order: int, input_dim: int, inputs: tuple[str, ...], output: str
) -> FirModel:
    kappa = rec.get("kappa_after")
    return FirModel(
        order=order,
        input_dim=input_dim,
        theta=np.array(rec["theta"], dtype=float),
        sigma2=float(rec["sigma2"]),
        rho=float(rec["rho"]),
        kappa_after=math.inf if kappa is None else float(kappa),
        dof=int(rec.get("dof", 0)),
        input_channel_names=inputs,
        output_channel_name=output,
    )


def save_store(
    path: str | os.PathLike,
    g: TransmissibilityFamily,
    h: TransmissibilityFamily,
    average: FirModel | None = None,
    c_lim: float = DEFAULT_C_LIM,
) -> None:
    """Write both families (plus an optional pooled-data model) as JSON.

    Floats are written as the shortest ``repr`` that round-trips, so a
    reload gives the exact same binary values.
    """
    if g.labels != h.labels:
        raise DataError("primary and auxiliary families must share labels")
    if h.decomposition is None:
        raise DataError("auxiliary family is missing its decomposition")
    doc = {
        "version": STORE_VERSION,
        "kind": "transmissibility-family-store",
        "order": int(g.order),
        "c_lim": float(c_lim),
        "decomposition": {
            "aux_output_index": int(h.decomposition.aux_output_index),
            "aux_output": h.output_channel_name,
        },
        "channel_names": {
            "pseudo_inputs": list(g.input_channel_names),
            "target_output": g.output_channel_name,
        },
        "conditions": [
            {"label": label, "G": _model_record(gm), "H": _model_record(hm)}
            for label, gm, hm in zip(g.labels, g.models, h.models)
        ],
    }
    if average is not None:
        doc["average"] = _model_record(average)
    try:
        text = json.dumps(doc, allow_nan=False)
    except ValueError as e:  # a non-finite c_lim; the models check their own floats
        raise DataError(f"{path}: cannot write model store: {e}") from None
    with open(path, "w") as f:
        f.write(text + "\n")


def load_store(
    path: str | os.PathLike,
) -> tuple[TransmissibilityFamily, TransmissibilityFamily, FirModel | None]:
    """Read a model store back into (primary, auxiliary, average-or-None)."""
    if not os.path.exists(path):
        raise DataError(f"model store not found: {path}")
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: not a valid model store: {e}") from None
    try:
        return _families_from_doc(doc)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None
    except KeyError as e:
        raise DataError(f"{path}: malformed model store: missing key {e}") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed model store: {e}") from None


def _families_from_doc(
    doc: dict,
) -> tuple[TransmissibilityFamily, TransmissibilityFamily, FirModel | None]:
    version = doc.get("version")
    if version != STORE_VERSION:
        raise DataError(
            f"unsupported store version {version!r}; this build reads version {STORE_VERSION}"
        )
    order = int(doc["order"])
    pseudo = tuple(doc["channel_names"]["pseudo_inputs"])
    target = str(doc["channel_names"]["target_output"])
    d = Decomposition(aux_output_index=int(doc["decomposition"]["aux_output_index"]))
    i1_names, i2_name = d.split(pseudo)
    labels = []
    g_models = []
    h_models = []
    for cond in doc["conditions"]:
        labels.append(str(cond["label"]))
        g_models.append(_model_from_record(cond["G"], order, len(pseudo), pseudo, target))
        h_models.append(
            _model_from_record(cond["H"], order, len(i1_names), tuple(i1_names), i2_name)
        )
    g = TransmissibilityFamily(kind=PRIMARY, labels=tuple(labels), models=tuple(g_models))
    h = TransmissibilityFamily(
        kind=AUXILIARY, labels=tuple(labels), models=tuple(h_models), decomposition=d
    )
    average = None
    if doc.get("average") is not None:
        average = _model_from_record(doc["average"], order, len(pseudo), pseudo, target)
    return g, h, average
