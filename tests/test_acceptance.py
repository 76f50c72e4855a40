"""Acceptance suite: one test per release criterion, one PASS line each.

Every tolerance is pinned here; the tests print their verdict before
asserting so a red run still shows the per-criterion outcome.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from transched.cli import main as cli_main
from transched.dataset import Decomposition, build_regressor
from transched.evaluation import compare_report, fit_metric
from transched.regression import ridge_fit, ridge_solve
from transched.scheduler import Prior, schedule_estimate
from transched.simulator import (
    ContinuousStateSpace,
    QuarterCarParams,
    build_continuous,
    c2d_zoh,
)
from transched.transmissibility import fit_average, predict_record, train_families

from conftest import (
    CONDITION_PARAMS,
    SAMPLE_TIME,
    make_switching_record,
    make_training_record,
)

C_LIM = 1.0e6
ORDER = 10
WINDOW = 20
SEEDS = range(25)  # >= 20 fixed seeds
SNR_INTERPRETATIONS = ((50.0, "linear"), (50.0, "db"))


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {verdict}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def quartercar_reproduction(quarter_car_systems):
    """Criterion 1 workload, shared with criterion 5's normalization check."""
    t0 = time.time()
    sequences_ok = True
    min_posterior = 1.0
    max_norm_dev = 0.0
    n_windows = 0
    for seed in SEEDS:
        for snr, scale in SNR_INTERPRETATIONS:
            records = [
                make_training_record(
                    quarter_car_systems, label, 1000, seed=seed * 31 + i,
                    snr=snr, snr_scale=scale,
                )
                for i, label in enumerate(("C1", "C2"))
            ]
            online = make_switching_record(
                quarter_car_systems, (("C1", 80), ("C2", 80)),
                seed=seed * 31 + 2, snr=snr, snr_scale=scale,
            )
            g, h = train_families(
                records, Decomposition(aux_output_index=1), ORDER, C_LIM
            )
            trace = schedule_estimate(g, h, online, Prior.uniform(2), WINDOW)
            if trace.chosen_labels() != ["C1"] * 4 + ["C2"] * 4:
                sequences_ok = False
            np.testing.assert_array_equal(trace.starts, WINDOW * np.arange(8))
            np.testing.assert_array_equal(trace.member, np.repeat(trace.chosen, WINDOW))
            true_idx = [0] * 4 + [1] * 4
            min_posterior = min(min_posterior, float(trace.posterior[range(8), true_idx].min()))
            max_norm_dev = max(max_norm_dev, float(np.abs(trace.posterior.sum(axis=1) - 1.0).max()))
            n_windows += trace.chosen.size
    return {
        "elapsed": time.time() - t0,
        "sequences_ok": sequences_ok,
        "min_posterior": min_posterior,
        "max_norm_dev": max_norm_dev,
        "n_windows": n_windows,
    }


def test_criterion_1_switching_reproduction(quartercar_reproduction):
    r = quartercar_reproduction
    ok = (
        r["sequences_ok"]
        and r["min_posterior"] > 0.99
        and r["elapsed"] < 10.0
        and r["n_windows"] == len(SEEDS) * len(SNR_INTERPRETATIONS) * 8
    )
    _report(
        1,
        "switching reproduction",
        ok,
        f"sequence (1,1,1,1,2,2,2,2) over {len(SEEDS)} seeds x both SNR readings, "
        f"min posterior {r['min_posterior']:.6f} > 0.99, "
        f"runtime {r['elapsed']:.2f}s < 10s",
    )


def test_criterion_2_noise_free_identifiability():
    rng = np.random.default_rng(424242)
    order, n_i = 4, 3
    blocks = [rng.normal(size=n_i) for _ in range(order + 1)]
    theta_true = np.concatenate(blocks)
    u = rng.normal(size=(n_i, 800))
    y = np.zeros(800)
    for t in range(order, 800):  # independent convolution oracle
        y[t] = sum(blocks[k] @ u[:, t - k] for k in range(order + 1))
    m = build_regressor(u, y[: u.shape[1]], order)
    err_mle = float(np.max(np.abs(ridge_solve(m, 0.0) - theta_true)))
    err_ridge = float(np.max(np.abs(ridge_fit(m, C_LIM).theta - theta_true)))
    ok = err_mle <= 1e-8 and err_ridge <= 1e-8
    _report(2, "noise-free identifiability", ok,
            f"max-abs error mle {err_mle:.2e}, ridge {err_ridge:.2e} <= 1e-8")


def test_criterion_3_regularization_bound():
    rng = np.random.default_rng(333)
    worst_kappa = 0.0
    branch_ok = True
    for k in range(100):
        n_rows = int(rng.integers(10, 60))
        n_cols = int(rng.integers(2, 9))
        phi = rng.normal(size=(n_rows, n_cols))
        kind = k % 4
        if kind == 1:  # graded columns, conditioning up to ~1e16
            phi = phi * np.logspace(0, -float(rng.integers(3, 9)), n_cols)
        elif kind == 2:  # duplicated column: exact rank deficiency
            phi[:, -1] = phi[:, int(rng.integers(0, n_cols - 1))]
        elif kind == 3:  # zero column
            phi[:, 0] = 0.0
        m = build_regressor(phi.T, rng.normal(size=n_rows), 0)
        sol = ridge_fit(m, C_LIM)
        lam = np.linalg.eigvalsh(phi.T @ phi + sol.rho * np.eye(n_cols))
        kappa = lam[-1] / max(lam[0], 0.0) if lam[-1] > 0 else 1.0
        worst_kappa = max(worst_kappa, kappa)
        if (sol.rho == 0.0) != (sol.kappa_before <= C_LIM):
            branch_ok = False
    ok = worst_kappa <= C_LIM * (1.0 + 1e-9) and branch_ok
    _report(3, "regularization bound", ok,
            f"worst oracle kappa {worst_kappa:.6f} <= 1e6*(1+1e-9) over 100 problems, "
            f"rho=0 exactly iff kappa<=C_lim")


def test_criterion_4_zoh_correctness():
    # scalar closed form
    scalar = ContinuousStateSpace(
        a=np.array([[-1.0]]), b=np.array([1.0]), c=np.eye(1), d=np.zeros(1)
    )
    d_scalar = c2d_zoh(scalar, 0.1)
    scalar_ok = (
        abs(d_scalar.a[0, 0] - math.exp(-0.1)) <= 1e-12
        and abs(d_scalar.b[0] - (1.0 - math.exp(-0.1))) <= 1e-12
    )
    semigroup_ok = steady_ok = series_ok = True
    for p in CONDITION_PARAMS.values():
        ss = build_continuous(p)
        d1 = c2d_zoh(ss, SAMPLE_TIME)
        d2 = c2d_zoh(ss, 2.0 * SAMPLE_TIME)
        x0 = np.array([0.01, -0.1, 0.005, 0.2])
        u = 0.03
        two = d1.a @ (d1.a @ x0 + d1.b * u) + d1.b * u
        one = d2.a @ x0 + d2.b * u
        scale = float(np.max(np.abs(one)))
        semigroup_ok &= bool(np.max(np.abs(two - one)) <= 1e-8 * scale)
        x_disc = np.linalg.solve(np.eye(4) - d1.a, d1.b)
        x_cont = np.linalg.solve(ss.a, -ss.b)
        steady_ok &= bool(
            np.max(np.abs(x_disc - x_cont)) <= 1e-8 * max(1.0, np.max(np.abs(x_cont)))
        )
        b_inv = np.linalg.solve(ss.a, (d1.a - np.eye(4)) @ ss.b)
        series_ok &= bool(np.max(np.abs(d1.b - b_inv)) <= 1e-9 * np.max(np.abs(b_inv)))
    ok = scalar_ok and semigroup_ok and steady_ok and series_ok
    _report(4, "ZOH correctness", ok,
            "scalar 1e-12, semigroup/steady-state 1e-8, series-vs-inverse 1e-9")


def test_criterion_5_metric_identities(quartercar_reproduction):
    rng = np.random.default_rng(55)
    y = rng.normal(size=200)
    fit_self = fit_metric(y, y)
    fit_mean = fit_metric(y, np.full(200, y.mean()))
    norm_dev = quartercar_reproduction["max_norm_dev"]
    ok = (
        abs(fit_self - 100.0) <= 1e-10
        and abs(fit_mean) <= 1e-10
        and norm_dev <= 1e-12
    )
    _report(5, "metric identities", ok,
            f"FIT(Y,Y)=100 and FIT(Y,mean)=0 to 1e-10; posterior sums within "
            f"{norm_dev:.2e} of 1 on all {quartercar_reproduction['n_windows']} windows")


def test_criterion_6_comparative_study(quarter_car_systems):
    t0 = time.time()
    offline = {
        "Q1": QuarterCarParams(m_s=300.0, m_u=40.0, k_s=2.0e4, k_r=1.8e5, c_s=1.5e3),
        "Q2": QuarterCarParams(m_s=300.0, m_u=40.0, k_s=4.0e4, k_r=2.0e5, c_s=2.5e3),
        "Q3": QuarterCarParams(m_s=300.0, m_u=40.0, k_s=1.2e4, k_r=1.6e5, c_s=1.0e3),
        "Q4": QuarterCarParams(m_s=300.0, m_u=40.0, k_s=3.0e4, k_r=2.4e5, c_s=3.5e3),
        "Q5": QuarterCarParams(m_s=300.0, m_u=40.0, k_s=5.0e4, k_r=1.4e5, c_s=2.0e3),
    }

    def perturb(p, f_ks, f_kr, f_cs):
        return QuarterCarParams(m_s=p.m_s, m_u=p.m_u, k_s=p.k_s * f_ks,
                                k_r=p.k_r * f_kr, c_s=p.c_s * f_cs)

    online_params = {f"O{k + 1}": offline[f"Q{k + 1}"] for k in range(5)}
    online_params.update({
        "O6": perturb(offline["Q1"], 1.05, 0.97, 1.04),
        "O7": perturb(offline["Q2"], 0.95, 1.03, 0.96),
        "O8": perturb(offline["Q3"], 1.06, 1.02, 0.95),
        "O9": perturb(offline["Q4"], 0.94, 0.98, 1.05),
        "O10": perturb(offline["Q5"], 1.04, 1.05, 1.03),
        "O11": perturb(offline["Q1"], 0.90, 1.00, 1.10),
        "O12": perturb(offline["Q4"], 1.10, 1.04, 0.92),
    })
    systems = {
        label: c2d_zoh(build_continuous(p), SAMPLE_TIME)
        for label, p in {**offline, **online_params}.items()
    }
    records = [
        make_training_record(systems, label, 1000, seed=1000 + i, snr=50.0)
        for i, label in enumerate(offline)
    ]
    g, h = train_families(records, Decomposition(aux_output_index=1), ORDER, C_LIM)
    avg = fit_average(records, ("y_I1_a", "y_I2"), "y_O", ORDER, C_LIM)
    online_records = [
        dataclasses.replace(
            make_training_record(systems, label, 1000, seed=2000 + i, snr=50.0),
            condition_label=label,
        )
        for i, label in enumerate(online_params)
    ]
    prior = Prior.uniform(len(offline))
    variant_traces = {"full": {}, "pooled": {}}
    for ts in online_records:
        for variant, pooled in (("full", False), ("pooled", True)):
            variant_traces[variant][ts.condition_label] = schedule_estimate(
                g, h, ts, prior, 50, pooled=pooled
            )
    predictions = {
        ts.condition_label: np.array([predict_record(m, ts) for m in g.models])
        for ts in online_records
    }
    report = compare_report(g, avg, online_records, variant_traces, predictions)
    elapsed = time.time() - t0

    sched_mean = float(report.column("scheduled").mean())
    avg_mean = float(report.column("average").mean())
    member_means = {lab: float(report.column(lab).mean()) for lab in g.labels}
    beats_average = sched_mean >= avg_mean
    beats_members = all(sched_mean >= m for m in member_means.values())
    scheduled, ideal = report.column("scheduled"), report.column("ideal")
    # O1..O5 coincide with offline conditions
    near_ideal = bool(np.all(np.abs(scheduled[:5] - ideal[:5]) <= 2.0))
    ideal_dominates = bool(np.all(ideal >= scheduled))
    acc_ordering = report.accuracies["full"] >= report.accuracies["pooled"]
    ok = (beats_average and beats_members and near_ideal and ideal_dominates
          and acc_ordering and elapsed < 60.0)
    _report(
        6,
        "comparative ordering",
        ok,
        f"scheduled mean {sched_mean:.2f}% >= average {avg_mean:.2f}% and every "
        f"member (best {max(member_means.values()):.2f}%); within 2pp of ideal on "
        f"offline-identical conditions; accuracy full {report.accuracies['full']:.2f} "
        f">= pooled {report.accuracies['pooled']:.2f}; runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_7_pipeline_determinism(tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        for command in ("simulate", "train", "estimate", "evaluate"):
            assert cli_main([command, "--out", str(out)]) == 0
        outs.append(out)
    mismatched = []
    files = sorted(p.name for p in outs[0].iterdir())
    for name in files:
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
            mismatched.append(name)
    ok = not mismatched and len(files) >= 9
    _report(7, "pipeline determinism", ok,
            f"{len(files)} artifacts byte-identical across reruns"
            + (f"; mismatched: {mismatched}" if mismatched else ""))
