"""Closed-form FIR parameter estimation with condition-capped ridge.

The ridge weight is not tuned by cross-validation; it is the smallest
value that caps the Gram matrix condition number at ``c_lim``:

    rho = 0                                   if kappa <= c_lim
    rho = (l_max - l_min * c_lim)/(c_lim - 1) otherwise

which lands the regularized condition number exactly on ``c_lim``.  One
LAPACK eigendecomposition Phi'Phi = V diag(lambda) V' gives both the extremes
of that rule and theta = V diag(1/(lambda + rho)) V' Phi'y (filter-factor form).

The rule works from the normal equations alone, so a row-stacked regression
is fitted from the sums of its parts' Gram matrices and right-hand sides
(``ridge_fit_pooled``) and never holds the stacked design matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .dataset import DEFAULT_C_LIM, RegressionMatrices, _check_c_lim
from .errors import DataError, NumericalError

# Relative floor below which a Gram eigenvalue is treated as exactly zero
# (rank deficiency).  Treating a tiny positive estimate as zero can only
# enlarge rho, which keeps the condition-number cap on the safe side.
_RANK_TOL = 1.0e-12


@dataclass(frozen=True, eq=False)
class RidgeSolution:
    """Ridge estimate with the regularization bookkeeping that produced it."""

    theta: np.ndarray
    sigma2: float
    dof: int
    rho: float
    kappa_before: float
    kappa_after: float

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", theta)
        theta.flags.writeable = False


def _eigh(gram: np.ndarray, vectors: bool = True):
    """LAPACK symmetric eigendecomposition, eigenvalues ascending."""
    try:
        return np.linalg.eigh(gram) if vectors else np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"symmetric eigensolver failed: {e}") from None


def _psd_extremes(eigs: np.ndarray) -> tuple[float, float]:
    """(lambda_max, lambda_min) of an ascending PSD spectrum, negatives floored."""
    l_min, l_max = float(eigs[0]), float(eigs[-1])
    if not l_min >= -1.0e-8 * max(l_max, 1.0e-300):  # also catches nan
        raise NumericalError(f"matrix is not positive semidefinite (lambda_min={l_min:.3e})")
    return l_max, max(l_min, 0.0)


def _filter_solve(gram: np.ndarray, eig, rhs: np.ndarray, rho: float) -> np.ndarray:
    """Solve (gram + rho I) x = rhs in filter-factor form, ``eig = eigh(gram)``.

    One step of iterative refinement brings the error from eps * kappa down
    to what a Cholesky solve attains (three orders of magnitude at kappa 1e6).
    """
    eigs, vecs = eig
    d = eigs + rho
    if not d[0] > d.size * np.finfo(float).eps * d[-1]:
        raise NumericalError(f"regularized Gram matrix is not positive definite within "
                             f"tolerance (eigenvalues {d[0]:.3e} to {d[-1]:.3e})")
    x = vecs @ ((vecs.T @ rhs) / d)
    return x + vecs @ ((vecs.T @ (rhs - gram @ x - rho * x)) / d)


def eigen_extremes(gram: np.ndarray) -> tuple[float, float]:
    """(lambda_max, lambda_min), the extreme eigenvalues of a symmetric PSD
    matrix.

    Round-off can push the smallest eigenvalue of a PSD matrix slightly
    negative; such values are floored at zero.  A clearly negative
    eigenvalue means the input was not PSD.  ``ridge_fit`` applies the
    same check to the spectrum of its own Gram matrix.
    """
    a = np.asarray(gram, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DataError(f"matrix must be square and non-empty, got shape {a.shape}")
    asym = float(np.max(np.abs(a - a.T)))
    if asym > 1.0e-10 * max(float(np.linalg.norm(a)), 1.0e-300):
        raise DataError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return _psd_extremes(_eigh(a, vectors=False))


def _kappa(lambda_max: float, lambda_min: float) -> float:
    return math.inf if lambda_min == 0.0 else lambda_max / lambda_min


def select_rho(lambda_max: float, lambda_min: float, c_lim: float) -> float:
    """Smallest ridge weight capping the Gram condition number at c_lim.

    ``lambda_min`` is taken as given: ``ridge_fit`` floors it to exactly zero
    at the rank tolerance first, which keeps the cap safe when the
    eigensolver reports a tiny value for a singular matrix.  ``c_lim`` must
    lie in (1, MAX_C_LIM]: the eigenvalues carry an absolute error of about
    eps * lambda_max, and the rule divides it by c_lim - 1, so rho is only
    good to about eps * (c_lim + 1) / (c_lim - 1) * lambda_max.  That grows
    without bound as c_lim approaches 1.
    """
    _check_c_lim(c_lim)
    if _kappa(lambda_max, lambda_min) <= c_lim:
        return 0.0
    return (lambda_max - lambda_min * c_lim) / (c_lim - 1.0)


def ridge_solve(m: RegressionMatrices, rho: float) -> np.ndarray:
    """Solve the ridge normal equations (Phi'Phi + rho I) theta = Phi'y."""
    gram = m.phi.T @ m.phi
    return _filter_solve(gram, _eigh(gram), m.phi.T @ m.y, rho)


def _dof(n_rows: int, n_params: int) -> int:
    dof = n_rows - n_params
    if dof <= 0:
        raise DataError(f"insufficient data for variance estimate: {n_rows} rows, "
                        f"{n_params} parameters")
    return dof


def estimate_variance(m: RegressionMatrices, theta: np.ndarray) -> float:
    """Residual variance, normalized by the regression degrees of freedom."""
    dof = _dof(m.n_rows, m.n_params)
    return _rss(m, np.asarray(theta, dtype=float)) / dof


def _rss(m: RegressionMatrices, theta: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # an overflow is an infinite RSS, which FirModel rejects
        r = m.y - m.phi @ theta
        return float(r @ r)


def ridge_fit(m: RegressionMatrices, c_lim: float = DEFAULT_C_LIM) -> RidgeSolution:
    """Ridge estimate with rho chosen by the condition-number rule: the
    one-part ``ridge_fit_pooled``.  A regression with no more rows than
    parameters fails before its Gram matrix is formed."""
    return ridge_fit_pooled(lambda: (m,), m.n_rows, m.n_params, c_lim)


def ridge_fit_pooled(
    parts: Callable[[], Iterable[RegressionMatrices]],
    n_rows: int,
    n_params: int,
    c_lim: float = DEFAULT_C_LIM,
) -> RidgeSolution:
    """``ridge_fit`` of the row-stacked regressions that ``parts()`` yields,
    holding one part at a time.

    ``parts`` is called twice: to sum the parts' Gram matrices and
    right-hand sides (the stacked normal equations), then to sum their
    squared residuals, never as y'y - 2 theta'b + theta'G theta, which
    cancels below zero on an exact fit.  ``n_rows`` (all parts together) and
    ``n_params`` are checked before any part is built, ``c_lim`` first, so a
    config error is reported before a data error; the first pass then checks
    them against the parts.
    """
    _check_c_lim(c_lim)
    dof = _dof(n_rows, n_params)
    gram = np.zeros((n_params, n_params))
    rhs = np.zeros(n_params)
    rows = 0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for m in parts():
            if m.n_params != n_params:
                raise DataError(f"a part has {m.n_params} parameters, not the {n_params} claimed")
            rows += m.n_rows
            gram += m.phi.T @ m.phi
            rhs += m.phi.T @ m.y
            del m  # else it is still held while the next part is built
    if rows != n_rows:
        raise DataError(f"the parts have {rows} rows, not the {n_rows} claimed")
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise NumericalError("the normal equations are not finite: the regression data overflow")
    eig = _eigh(gram)
    l_max, l_min = _psd_extremes(eig[0])
    if l_min <= _RANK_TOL * l_max:
        l_min = 0.0
    rho = select_rho(l_max, l_min, c_lim)
    # a zero Gram matrix gets rho 0, which _filter_solve rejects
    theta = _filter_solve(gram, eig, rhs, rho)
    rss = 0.0
    for m in parts():
        rss += _rss(m, theta)
        del m
    return RidgeSolution(
        theta=theta,
        sigma2=rss / dof,
        dof=dof,
        rho=rho,
        kappa_before=_kappa(l_max, l_min),
        kappa_after=(l_max + rho) / (l_min + rho),
    )
