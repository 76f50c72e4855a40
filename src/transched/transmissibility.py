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
from typing import TYPE_CHECKING, Collection, Mapping, Sequence

import numpy as np

from .dataset import (
    DEFAULT_C_LIM,
    TimeSeriesSet,
    _check_label,
    _unreadable,
    build_regressor,
    lag_rows,
)
from .errors import DataError

if TYPE_CHECKING:
    from .regression import RidgeSolution

STORE_VERSION = 1


@dataclass(frozen=True, eq=False)
class FirModel:
    """One fitted FIR map with its residual variance and fit metadata.

    The model's input width ``input_dim`` is the number of its input
    channel names.  ``theta`` has length input_dim * (order + 1), grouped
    per lag: [b_0' ... b_n'] with one block of input_dim coefficients per
    lag.
    """

    order: int
    input_channel_names: tuple[str, ...]
    theta: np.ndarray
    sigma2: float
    rho: float = 0.0
    kappa_after: float = math.inf
    dof: int = 0
    output_channel_name: str = ""

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float).ravel()
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "input_channel_names", tuple(self.input_channel_names))
        if self.order < 0:
            raise DataError(f"order must be non-negative, got {self.order}")
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

    @property
    def input_dim(self) -> int:
        return len(self.input_channel_names)


@dataclass(frozen=True, eq=False)
class TransmissibilityFamily:
    """Condition-indexed collection of structurally identical FIR models."""

    labels: tuple[str, ...]
    models: tuple[FirModel, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "models", tuple(self.models))
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
        input_channel_names=inputs,
        theta=sol.theta,
        sigma2=sol.sigma2,
        rho=sol.rho,
        kappa_after=sol.kappa_after,
        dof=sol.dof,
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
    order, n_in = model.order, model.input_dim
    m = y_i.shape[1]
    n = lag_rows(m, order)
    out = np.zeros(n)
    term = np.empty(n)
    for j, coef in enumerate(model.theta.tolist()):
        k, c = divmod(j, n_in)
        np.multiply(y_i[c, order - k : m - k], coef, out=term)
        out += term
    return out


def predict_record(model: FirModel, ts: TimeSeriesSet) -> np.ndarray:
    """Predict from a record, picking the model's input channels by name."""
    return predict(model, ts.channels(model.input_channel_names))


def _drivers(pseudo: Sequence[str], aux_output: str) -> tuple[str, ...]:
    """The auxiliary family's inputs: every pseudo-input but its output
    ``aux_output``, in their order."""
    if len(pseudo) < 2:
        raise DataError(
            f"decomposition needs at least 2 pseudo-input channels, got {len(pseudo)}"
        )
    if aux_output not in pseudo:
        raise DataError(
            f"auxiliary output {aux_output!r} is not a pseudo-input channel {list(pseudo)}"
        )
    return tuple(n for n in pseudo if n != aux_output)


def train_families(
    records: Mapping[str, TimeSeriesSet],
    target: str,
    aux_output: str,
    order: int,
    c_lim: float = DEFAULT_C_LIM,
) -> tuple[TransmissibilityFamily, TransmissibilityFamily]:
    """Fit the primary and auxiliary family: one member per condition label
    of ``records``, in its order, fitted to the record filed under it.

    The records must share their channel names.  The pseudo-inputs are every
    channel but ``target``, in record order.  Per condition q, the primary
    member maps all pseudo-inputs to ``target`` and the auxiliary member
    maps every other pseudo-input to the pseudo-input ``aux_output``.
    """
    if not records:
        raise DataError("need at least one labeled record")
    names = next(iter(records.values())).names
    for label, ts in records.items():
        if ts.names != names:
            raise DataError(f"record {label!r} channel schema {ts.names} does not match {names}")
    if target not in names:
        raise DataError(f"target channel {target!r} is not a record channel {list(names)}")
    pseudo = tuple(n for n in names if n != target)
    drivers = _drivers(pseudo, aux_output)
    labels = tuple(records)
    g_models = [fit_fir(ts, pseudo, target, order, c_lim) for ts in records.values()]
    h_models = [fit_fir(ts, drivers, aux_output, order, c_lim) for ts in records.values()]
    return TransmissibilityFamily(labels, g_models), TransmissibilityFamily(labels, h_models)


def fit_average(
    records: Collection[TimeSeriesSet],
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


def _stored_int(value, key: str) -> int:
    """``value``, a JSON integer: ``int()`` would read 10.9 as 10 and true as 1."""
    if type(value) is int:
        return value
    try:
        int(value)  # its message names a non-finite float, null or text
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{key}: {e}") from None
    raise ValueError(f"{key}: expected an integer, got {json.dumps(value)}")


def _model_from_record(rec: dict, order: int, inputs: tuple[str, ...], output: str) -> FirModel:
    kappa = rec.get("kappa_after")
    return FirModel(
        order=order,
        input_channel_names=inputs,
        theta=np.array(rec["theta"], dtype=float),
        sigma2=float(rec["sigma2"]),
        rho=float(rec["rho"]),
        kappa_after=math.inf if kappa is None else float(kappa),
        dof=_stored_int(rec.get("dof", 0), "dof"),
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
    pseudo = g.input_channel_names
    if h.input_channel_names != _drivers(pseudo, h.output_channel_name):
        raise DataError(f"auxiliary inputs {h.input_channel_names} do not split {pseudo}")
    doc = {
        "version": STORE_VERSION,
        "kind": "transmissibility-family-store",
        "order": int(g.order),
        "c_lim": float(c_lim),
        "decomposition": {
            "aux_output_index": pseudo.index(h.output_channel_name),
            "aux_output": h.output_channel_name,
        },
        "channel_names": {
            "pseudo_inputs": list(pseudo),
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
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (UnicodeDecodeError, OSError) as e:
        raise _unreadable(path, e) from None
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deeply
        raise DataError(f"{path}: not a valid model store: {e}") from None
    try:
        return _families_from_doc(doc)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None
    except KeyError as e:
        raise DataError(f"{path}: malformed model store: missing key {e}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as e:
        raise DataError(f"{path}: malformed model store: {e}") from None


def _families_from_doc(
    doc: dict,
) -> tuple[TransmissibilityFamily, TransmissibilityFamily, FirModel | None]:
    version = doc.get("version")
    if type(version) is not int or version != STORE_VERSION:  # true == 1
        raise DataError(
            f"unsupported store version {version!r}; this build reads version {STORE_VERSION}"
        )
    order = _stored_int(doc["order"], "order")
    pseudo = tuple(doc["channel_names"]["pseudo_inputs"])
    target = str(doc["channel_names"]["target_output"])
    decomposition = doc["decomposition"]
    index = _stored_int(decomposition["aux_output_index"], "aux_output_index")
    if not 0 <= index < len(pseudo):
        raise DataError(
            f"auxiliary output index {index} out of range for {len(pseudo)} pseudo-input channels"
        )
    aux_output = pseudo[index]
    if decomposition["aux_output"] != aux_output:  # the store states it twice
        raise DataError(
            f"auxiliary output {decomposition['aux_output']!r} does not match "
            f"aux_output_index {index}, pseudo-input {aux_output!r}"
        )
    drivers = _drivers(pseudo, aux_output)
    labels = []
    g_models = []
    h_models = []
    for name in (*pseudo, target):
        _check_label("channel_names", name, what="channel name")
    for cond in doc["conditions"]:
        labels.append(str(cond["label"]))
        _check_label("conditions", labels[-1])
        g_models.append(_model_from_record(cond["G"], order, pseudo, target))
        h_models.append(_model_from_record(cond["H"], order, drivers, aux_output))
    average = None
    if doc.get("average") is not None:
        average = _model_from_record(doc["average"], order, pseudo, target)
    g = TransmissibilityFamily(labels, g_models)
    return g, TransmissibilityFamily(labels, h_models), average
