import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from transched.dataset import RegressionMatrices, build_regressor
from transched.errors import ConfigError, DataError, NumericalError
from transched.regression import (
    eigen_extremes,
    estimate_variance,
    ridge_fit,
    ridge_solve,
    select_rho,
)


def _matrices(phi, y, order=0, input_dim=None):
    phi = np.asarray(phi, dtype=float)
    if input_dim is None:
        input_dim = phi.shape[1] // (order + 1)
    return RegressionMatrices(phi=phi, y=np.asarray(y, dtype=float),
                              order=order, input_dim=input_dim)


def _gaussian_elimination(a, b):
    """Independent dense solver: partial-pivot elimination, no numpy.linalg."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        for i in range(k + 1, n):
            f = a[i, k] / a[k, k]
            a[i, k:] -= f * a[k, k:]
            b[i] -= f * b[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


def _fir_response(theta_blocks, u):
    """Direct convolution oracle for the FIR sum, one lag block at a time."""
    n_i, m_len = u.shape
    order = len(theta_blocks) - 1
    y = np.zeros(m_len)
    for t in range(order, m_len):
        y[t] = sum(theta_blocks[k] @ u[:, t - k] for k in range(order + 1))
    return y


# ------------------------------------------------ SPD solves (ridge, MLE)


def test_solve_spd_identity():
    m = _matrices(np.eye(3), [1.0, 2.0, 3.0], order=0, input_dim=3)
    np.testing.assert_array_equal(ridge_solve(m, 0.0), [1, 2, 3])


def test_solve_spd_diagonal():
    # Gram diag(4, 16), Phi'y = [4, 32]
    m = _matrices(np.diag([2.0, 4.0]), [2.0, 8.0], order=0, input_dim=2)
    np.testing.assert_allclose(ridge_solve(m, 0.0), [1.0, 2.0])


def test_solve_spd_matches_elimination_oracle():
    rng = np.random.default_rng(11)
    phi = rng.normal(size=(12, 5))
    y = rng.normal(size=12)
    m = _matrices(phi, y, order=0, input_dim=5)
    for rho in (0.0, 5.0):
        gram = phi.T @ phi + rho * np.eye(5)
        np.testing.assert_allclose(ridge_solve(m, rho), _gaussian_elimination(gram, phi.T @ y),
                                   rtol=1e-9, atol=1e-12)


def test_solve_spd_residual_bound_at_high_conditioning():
    # conditioning at the ridge cap must still give 1e-8 relative residuals
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    phi = q @ np.diag(np.logspace(0, -3, 8)) @ q.T  # Gram kappa = 1e6
    m = _matrices(phi, rng.normal(size=8), order=0, input_dim=8)
    gram, rhs = phi.T @ phi, phi.T @ m.y
    assert np.linalg.cond(gram) == pytest.approx(1e6, rel=1e-3)
    x = ridge_solve(m, 0.0)
    assert np.linalg.norm(gram @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_solve_spd_rejects_indefinite():
    m = _matrices(np.diag([1.0, 2.0]), [1.0, 1.0], order=0, input_dim=2)
    with pytest.raises(NumericalError, match="positive definite"):
        ridge_solve(m, -2.0)  # Gram + rho I = diag(-1, 2)
    singular = _matrices(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), [1.0, 1.0, 1.0],
                         order=0, input_dim=2)
    with pytest.raises(NumericalError, match="positive definite"):
        ridge_solve(singular, 0.0)


# ------------------------------------------------------------ eigen extremes


def test_eigen_extremes_diagonal():
    ext = eigen_extremes(np.diag([4.0, 1.0]))
    assert ext.lambda_max == pytest.approx(4.0, abs=1e-12)
    assert ext.lambda_min == pytest.approx(1.0, abs=1e-12)


def test_eigen_extremes_identity():
    for k in (1, 3, 6):
        ext = eigen_extremes(np.eye(k))
        assert ext.lambda_max == pytest.approx(1.0, abs=1e-12)
        assert ext.lambda_min == pytest.approx(1.0, abs=1e-12)


def test_eigen_extremes_against_characteristic_polynomial():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(9, 6))
    gram = x.T @ x
    ext = eigen_extremes(gram)
    roots = np.sort(np.roots(np.poly(gram)).real)
    assert ext.lambda_min == pytest.approx(roots[0], rel=1e-8)
    assert ext.lambda_max == pytest.approx(roots[-1], rel=1e-8)
    lam = np.linalg.eigvalsh(gram)
    assert ext.lambda_min == pytest.approx(lam[0], rel=1e-10)
    assert ext.lambda_max == pytest.approx(lam[-1], rel=1e-10)


def test_eigen_extremes_match_scipy_eigvalsh():
    rng = np.random.default_rng(22)
    for n_rows, n_cols in ((30, 12), (12, 12), (6, 12)):  # full rank, square, rank deficient
        x = rng.normal(size=(n_rows, n_cols))
        gram = x.T @ x
        ext = eigen_extremes(gram)
        lam = scipy.linalg.eigvalsh(gram)
        atol = 1e-11 * np.linalg.norm(gram)
        assert ext.lambda_max == pytest.approx(lam[-1], rel=0, abs=atol)
        assert ext.lambda_min == pytest.approx(max(lam[0], 0.0), rel=0, abs=atol)
        assert ext.lambda_min >= 0.0


def test_eigen_extremes_rejects_asymmetric():
    with pytest.raises(DataError, match="symmetric"):
        eigen_extremes(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eigen_extremes_rejects_indefinite():
    with pytest.raises(NumericalError, match="positive semidefinite"):
        eigen_extremes(np.array([[1.0, 2.0], [2.0, 1.0]]))


# ridge_fit checks the spectrum of its own Gram matrix with the same rule
# and floors lambda_min at the rank tolerance before kappa_before and rho.


def _gram_fit(x):
    """ridge_fit on a design whose Gram matrix is x'x; zero rows keep dof > 0."""
    phi = np.vstack([x, np.zeros((x.shape[1] + 1, x.shape[1]))])
    return ridge_fit(_matrices(phi, np.ones(phi.shape[0]), order=0, input_dim=x.shape[1]))


def test_ridge_fit_kappa_before_matches_scipy_eigvalsh():
    rng = np.random.default_rng(22)
    for n_rows, n_cols in ((30, 12), (12, 12), (6, 12)):  # full rank, square, rank deficient
        x = rng.normal(size=(n_rows, n_cols))
        lam = scipy.linalg.eigvalsh(x.T @ x)
        kappa = _gram_fit(x).kappa_before
        if n_rows < n_cols:
            assert kappa == math.inf  # floored to exactly zero at the rank tolerance
        else:
            assert kappa == pytest.approx(lam[-1] / lam[0], rel=1e-8)


def test_ridge_fit_floors_tiny_eigenvalue_to_zero():
    # two nearly collinear columns: lambda_min / lambda_max ~ 5e-14, positive
    # and well above round-off, but under the rank tolerance
    rng = np.random.default_rng(23)
    x = rng.normal(size=(20, 3))
    x[:, 2] = x[:, 1] + 3e-7 * rng.normal(size=20)
    lam = np.linalg.eigvalsh(x.T @ x)
    assert 1e-15 < lam[0] / lam[-1] < 1e-12
    sol = ridge_fit(_matrices(x, np.ones(20), order=0, input_dim=3))
    assert sol.kappa_before == math.inf
    assert sol.rho == pytest.approx(lam[-1] / (1e6 - 1.0), rel=1e-12)


# ------------------------------------------------------------------ select_rho


def test_select_rho_zero_branch():
    assert select_rho(100.0, 1.0, 1e6) == 0.0


def test_select_rho_cap_branch():
    rho = select_rho(1e8, 1.0, 1e6)
    assert rho == (1e8 - 1e6) / (1e6 - 1.0)
    assert (1e8 + rho) / (1.0 + rho) == pytest.approx(1e6, rel=1e-9)


def test_select_rho_singular_gram():
    rho = select_rho(1.0, 0.0, 1e6)
    assert rho == 1.0 / (1e6 - 1.0)
    assert (1.0 + rho) / rho == pytest.approx(1e6, rel=1e-12)


def test_select_rho_invalid_cap():
    with pytest.raises(ConfigError, match="c_lim"):
        select_rho(1.0, 1.0, 1.0)


def test_select_rho_rejects_cap_above_ceiling():
    # eigenvalue error ~ eps * lambda_max makes rho inaccurate above 1e12
    assert select_rho(1.0, 0.0, 1e12) == 1.0 / (1e12 - 1.0)
    with pytest.raises(ConfigError, match="c_lim"):
        select_rho(1.0, 0.0, 1e13)
    with pytest.raises(ConfigError, match="c_lim"):
        ridge_fit(_matrices(np.eye(2), [1.0, 1.0], order=0, input_dim=2), 1e13)


# --------------------------------------------------------------------- fits


def test_mle_identity_design():
    m = _matrices(np.eye(2), [3.0, 5.0], order=0, input_dim=2)
    np.testing.assert_allclose(ridge_solve(m, 0.0), [3.0, 5.0], atol=1e-14)


def test_mle_recovers_noise_free_fir():
    rng = np.random.default_rng(31)
    order, n_i = 2, 2
    theta_blocks = [rng.normal(size=n_i) for _ in range(order + 1)]
    u = rng.normal(size=(n_i, 400))
    y = _fir_response(theta_blocks, u)
    m = build_regressor(u, y, order)
    theta = ridge_solve(m, 0.0)
    np.testing.assert_allclose(theta, np.concatenate(theta_blocks), atol=1e-8)


def test_mle_residual_orthogonal_to_columns():
    rng = np.random.default_rng(32)
    phi = rng.normal(size=(60, 5))
    y = rng.normal(size=60)
    theta = ridge_solve(_matrices(phi, y, order=0, input_dim=5), 0.0)
    r = y - phi @ theta
    assert np.max(np.abs(phi.T @ r)) <= 1e-8 * np.linalg.norm(y) * np.linalg.norm(phi)


def test_mle_duplicated_column_fails():
    rng = np.random.default_rng(33)
    col = rng.normal(size=(30, 1))
    phi = np.hstack([col, col])
    with pytest.raises(NumericalError, match="not positive definite"):
        ridge_solve(_matrices(phi, rng.normal(size=30), order=0, input_dim=2), 0.0)


def test_ridge_equals_mle_when_well_conditioned():
    rng = np.random.default_rng(34)
    phi = rng.normal(size=(80, 6))
    y = rng.normal(size=80)
    m = _matrices(phi, y, order=0, input_dim=6)
    sol = ridge_fit(m, 1e6)
    assert sol.rho == 0.0
    theta_mle = np.linalg.lstsq(phi, y, rcond=None)[0]
    np.testing.assert_allclose(sol.theta, theta_mle,
                               atol=1e-10 * max(1.0, np.max(np.abs(theta_mle))))


def test_ridge_caps_condition_number():
    rng = np.random.default_rng(35)
    q, _ = np.linalg.qr(rng.normal(size=(40, 6)))
    phi = q @ np.diag([1.0, 1.0, 1.0, 1.0, 1e-3, 1e-6])  # gram kappa = 1e12
    m = _matrices(phi, rng.normal(size=40), order=0, input_dim=6)
    sol = ridge_fit(m, 1e6)
    assert sol.rho > 0.0
    assert sol.kappa_before > 1e6
    lam = np.linalg.eigvalsh(phi.T @ phi + sol.rho * np.eye(6))
    assert lam[-1] / max(lam[0], 0.0) <= 1e6 * (1 + 1e-9)
    assert sol.kappa_after <= 1e6 * (1 + 1e-9)


def test_ridge_zero_target():
    rng = np.random.default_rng(36)
    phi = rng.normal(size=(50, 4))
    sol = ridge_fit(_matrices(phi, np.zeros(50), order=0, input_dim=4))
    np.testing.assert_array_equal(sol.theta, np.zeros(4))
    assert sol.sigma2 == 0.0


def test_ridge_norm_shrinks_as_rho_grows():
    rng = np.random.default_rng(37)
    phi = rng.normal(size=(60, 5))
    y = rng.normal(size=60)
    m = _matrices(phi, y, order=0, input_dim=5)
    norms = [np.linalg.norm(ridge_solve(m, rho)) for rho in (0.0, 10.0, 1e3, 1e6)]
    assert norms[0] > norms[1] > norms[2] > norms[3]


def test_ridge_solve_zero_rho_equals_mle():
    rng = np.random.default_rng(38)
    phi = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    m = _matrices(phi, y, order=0, input_dim=3)
    theta_mle = np.linalg.lstsq(phi, y, rcond=None)[0]  # SVD least squares
    np.testing.assert_allclose(ridge_solve(m, 0.0), theta_mle, rtol=0, atol=1e-12)


def test_non_finite_input_is_numerical_error():
    # library callers can bypass the CSV and record checks; a LAPACK failure
    # or a nan spectrum must still surface as NumericalError (exit 4)
    for where in ((4, 1), (slice(None), 0), (slice(None), slice(None))):
        phi = np.random.default_rng(39).normal(size=(20, 3))
        phi[where] = np.nan
        with pytest.raises(NumericalError):
            ridge_fit(_matrices(phi, np.ones(20), order=0, input_dim=3))
    with pytest.raises(NumericalError):
        eigen_extremes(np.full((2, 2), np.nan))


# ------------------------------------------------------------------ variance


def test_variance_perfect_fit():
    rng = np.random.default_rng(41)
    phi = rng.normal(size=(20, 2))
    theta = np.array([1.5, -0.5])
    m = _matrices(phi, phi @ theta, order=0, input_dim=2)
    assert estimate_variance(m, theta) == pytest.approx(0.0, abs=1e-25)


def test_variance_arithmetic():
    # ||residual||^2 = 10 with N=20, one input, order 1 -> 10 / (20 - 2)
    rng = np.random.default_rng(42)
    phi = rng.normal(size=(20, 2))
    y = np.zeros(20)
    y[0], y[1] = 3.0, 1.0  # squared norm exactly 10
    m = RegressionMatrices(phi=phi, y=y, order=1, input_dim=1)
    assert estimate_variance(m, np.zeros(2)) == 10.0 / 18.0


def test_ridge_fit_rejects_too_few_rows_before_the_gram(monkeypatch):
    def no_eigh(*args):
        raise AssertionError("Gram matrix formed")

    monkeypatch.setattr("transched.regression._eigh", no_eigh)
    m = _matrices(np.ones((3, 4)), [1.0, 2.0, 3.0], order=1, input_dim=2)
    with pytest.raises(DataError, match="insufficient data for variance estimate: 3 rows, 4"):
        ridge_fit(m)


def test_variance_dof_guard():
    m = _matrices(np.eye(2), [1.0, 2.0], order=0, input_dim=2)
    with pytest.raises(DataError, match="insufficient data"):
        estimate_variance(m, np.zeros(2))


# ------------------------------------------------------- randomized coverage


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_ridge_cap_holds_for_random_problems(seed):
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(8, 40))
    n_cols = int(rng.integers(2, 7))
    phi = rng.normal(size=(n_rows, n_cols))
    kind = seed % 3
    if kind == 1:  # badly scaled columns
        phi = phi * np.logspace(0, -float(rng.integers(4, 9)), n_cols)
    elif kind == 2:  # exactly rank deficient
        phi[:, -1] = phi[:, 0]
    sol = ridge_fit(_matrices(phi, rng.normal(size=n_rows), order=0, input_dim=n_cols), 1e6)
    lam = np.linalg.eigvalsh(phi.T @ phi + sol.rho * np.eye(n_cols))
    assert lam[-1] / max(lam[0], 0.0) <= 1e6 * (1 + 1e-9)
    assert (sol.rho == 0.0) == (sol.kappa_before <= 1e6)


def test_ridge_cap_survives_nearly_parallel_columns():
    # hardest case for the cap: two almost identical equal-norm columns put
    # lambda_min anywhere between rank deficiency and the c_lim boundary
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(300):
        n_rows = int(rng.integers(10, 60))
        base = rng.normal(size=n_rows)
        eps = 10.0 ** -float(rng.integers(3, 9))
        phi = np.column_stack(
            [base, base + eps * rng.normal(size=n_rows), rng.normal(size=n_rows)]
        )
        m = _matrices(phi, rng.normal(size=n_rows), order=0, input_dim=3)
        sol = ridge_fit(m, 1e6)
        lam = np.linalg.eigvalsh(phi.T @ phi + sol.rho * np.eye(3))
        worst = max(worst, lam[-1] / max(lam[0], 0.0))
    assert worst <= 1e6 * (1 + 1e-9)


def test_noise_free_identifiability_with_ridge():
    rng = np.random.default_rng(43)
    order, n_i = 3, 2
    theta_blocks = [rng.normal(size=n_i) for _ in range(order + 1)]
    u = rng.normal(size=(n_i, 600))
    y = _fir_response(theta_blocks, u)
    sol = ridge_fit(build_regressor(u, y, order), 1e6)
    np.testing.assert_allclose(sol.theta, np.concatenate(theta_blocks), atol=1e-8)
    assert sol.sigma2 <= 1e-16
