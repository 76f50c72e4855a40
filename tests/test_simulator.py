import hashlib
import math
import os
import subprocess
import sys
import warnings
from functools import reduce
from operator import add, mul

import numpy as np
import pytest
import scipy.linalg
import scipy.signal

import transched
from transched import simulator
from transched.errors import ConfigError, DataError
from transched.simulator import (
    CHANNEL_NAMES,
    SIMULATE_CHUNK_SAMPLES,
    DiscreteStateSpace,
    NoiseSpec,
    QuarterCarParams,
    SwitchSchedule,
    add_noise,
    build_continuous,
    c2d_zoh,
    gen_excitation,
    matrix_exp,
    simulate,
)

from conftest import CONDITION_PARAMS, SAMPLE_TIME


# ---------------------------------------------------------- continuous model


def test_quarter_car_matrix_entries():
    ss = build_continuous(CONDITION_PARAMS["C1"])
    assert ss.a[1, 0] == pytest.approx(-2.0e4 / 300.0)  # -k_s/m_s
    assert ss.a[3, 2] == pytest.approx(-(2.0e4 + 1.8e5) / 40.0)  # -(k_s+k_r)/m_u
    np.testing.assert_array_equal(ss.a[0], [0.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(ss.a[2], [0.0, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal(ss.b, [0.0, 0.0, 0.0, 1.8e5 / 40.0])


def test_quarter_car_output_rows():
    for p in CONDITION_PARAMS.values():
        ss = build_continuous(p)
        np.testing.assert_array_equal(ss.c[2], [1.0, 0.0, -1.0, 0.0])
        np.testing.assert_array_equal(ss.c[0], ss.a[3])  # unsprung acceleration row
        np.testing.assert_array_equal(ss.c[1], ss.a[1])  # sprung acceleration row


def test_quarter_car_feedthrough():
    ss = build_continuous(CONDITION_PARAMS["C1"])
    np.testing.assert_array_equal(ss.d, [4500.0, 0.0, 0.0])


def test_quarter_car_rejects_nonpositive_parameter():
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="m_s must be positive and finite"):
            QuarterCarParams(m_s=bad, m_u=40.0, k_s=1.0, k_r=1.0, c_s=1.0)


def test_quarter_car_is_hurwitz():
    for p in CONDITION_PARAMS.values():
        eig = np.linalg.eigvals(build_continuous(p).a)
        assert np.all(eig.real < 0.0)


# -------------------------------------------------------- matrix exponential


def test_matrix_exp_zero():
    np.testing.assert_array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_matrix_exp_scalar():
    out = matrix_exp(np.array([[-1.0]]) * 0.1)
    assert out[0, 0] == pytest.approx(math.exp(-0.1), rel=1e-14)


def test_matrix_exp_squaring_identity_on_plant():
    for p in CONDITION_PARAMS.values():
        m = build_continuous(p).a * SAMPLE_TIME
        full = matrix_exp(m)
        half = matrix_exp(m / 2.0)
        np.testing.assert_allclose(half @ half, full,
                                   rtol=0, atol=1e-10 * np.max(np.abs(full)))


def test_matrix_exp_matches_scipy():
    rng = np.random.default_rng(3)
    for p in CONDITION_PARAMS.values():
        m = build_continuous(p).a * SAMPLE_TIME
        np.testing.assert_allclose(matrix_exp(m), scipy.linalg.expm(m),
                                   rtol=0, atol=1e-10 * np.max(np.abs(scipy.linalg.expm(m))))
    m = rng.normal(size=(5, 5))
    np.testing.assert_allclose(matrix_exp(m), scipy.linalg.expm(m), rtol=1e-10, atol=1e-12)


def test_matrix_exp_rejects_non_finite():
    with pytest.raises(DataError, match="finite"):
        matrix_exp(np.array([[math.inf]]))


# ------------------------------------------------------------ discretization


def test_c2d_zero_dynamics():
    from transched.simulator import ContinuousStateSpace

    ss = ContinuousStateSpace(
        a=np.zeros((4, 4)), b=np.array([1.0, 2.0, 3.0, 4.0]),
        c=np.eye(4)[:3], d=np.zeros(3),
    )
    d = c2d_zoh(ss, 0.5)
    np.testing.assert_allclose(d.a, np.eye(4), atol=1e-15)
    np.testing.assert_allclose(d.b, 0.5 * ss.b, rtol=1e-14)


def test_c2d_scalar_closed_form():
    from transched.simulator import ContinuousStateSpace

    ss = ContinuousStateSpace(
        a=np.array([[-1.0]]), b=np.array([1.0]), c=np.eye(1), d=np.zeros(1)
    )
    d = c2d_zoh(ss, 0.1)
    assert d.a[0, 0] == pytest.approx(math.exp(-0.1), rel=1e-12)
    assert d.b[0] == pytest.approx(1.0 - math.exp(-0.1), rel=1e-12)


def test_c2d_series_matches_inverse_formula():
    for p in CONDITION_PARAMS.values():
        ss = build_continuous(p)
        d = c2d_zoh(ss, SAMPLE_TIME)
        b_ref = np.linalg.solve(ss.a, (d.a - np.eye(4)) @ ss.b)
        np.testing.assert_allclose(d.b, b_ref, rtol=1e-9)


def test_c2d_spectral_radius_below_one():
    for p in CONDITION_PARAMS.values():
        d = c2d_zoh(build_continuous(p), SAMPLE_TIME)
        assert np.max(np.abs(np.linalg.eigvals(d.a))) < 1.0


def test_c2d_steady_state_consistency():
    # constant input: discrete fixed point equals continuous equilibrium
    for p in CONDITION_PARAMS.values():
        ss = build_continuous(p)
        d = c2d_zoh(ss, SAMPLE_TIME)
        x_disc = np.linalg.solve(np.eye(4) - d.a, d.b)
        x_cont = np.linalg.solve(ss.a, -ss.b)
        np.testing.assert_allclose(x_disc, x_cont, rtol=1e-8,
                                   atol=1e-8 * np.max(np.abs(x_cont)))


def test_c2d_semigroup_property():
    for p in CONDITION_PARAMS.values():
        ss = build_continuous(p)
        d1 = c2d_zoh(ss, SAMPLE_TIME)
        d2 = c2d_zoh(ss, 2.0 * SAMPLE_TIME)
        x0 = np.array([0.01, 0.0, -0.02, 0.1])
        u = 0.05
        two_steps = d1.a @ (d1.a @ x0 + d1.b * u) + d1.b * u
        one_step = d2.a @ x0 + d2.b * u
        np.testing.assert_allclose(two_steps, one_step,
                                   rtol=0, atol=1e-9 * max(1.0, np.max(np.abs(one_step))))


def test_c2d_rejects_nonpositive_sample_time():
    ss = build_continuous(CONDITION_PARAMS["C1"])
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="sampling time"):
            c2d_zoh(ss, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would raise
        with pytest.raises(ConfigError, match=r"a\*t or b\*t is not finite"):
            c2d_zoh(ss, 1e308)


# ------------------------------------------------------------------ signals


def test_excitation_deterministic_per_seed():
    a = gen_excitation(100, 0.01, 5)
    b = gen_excitation(100, 0.01, 5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, gen_excitation(100, 0.01, 6))


def test_excitation_variance_level():
    z = gen_excitation(1000, 0.01, 7)
    assert abs(float(np.var(z)) - 0.01) <= 0.15 * 0.01


def test_excitation_mean_bound():
    n = 10_000
    z = gen_excitation(n, 0.01, 8)
    assert abs(float(z.mean())) <= 4.0 * 0.1 / math.sqrt(n)


def test_excitation_rejects_bad_variance():
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="variance"):
            gen_excitation(10, bad, 1)


# ----------------------------------------------------------------- simulate


def test_simulate_zero_everything(quarter_car_systems):
    ts = simulate(quarter_car_systems, SwitchSchedule(steps=(("C1", 50),)), np.zeros(50))
    np.testing.assert_array_equal(ts.data, np.zeros((3, 50)))


def test_simulate_impulse_matches_direct_recursion(quarter_car_systems):
    sys1 = quarter_car_systems["C1"]
    z = np.zeros(40)
    z[0] = 1.0
    ts = simulate(quarter_car_systems, SwitchSchedule(steps=(("C1", 40),)), z)
    # independent recursion, scalar formulas per step
    x = np.zeros(4)
    for t in range(40):
        y_ref = sys1.c @ x + sys1.d * z[t]
        np.testing.assert_allclose(ts.data[:, t], y_ref, rtol=0, atol=1e-12)
        x = sys1.a @ x + sys1.b * z[t]


def test_simulate_switching_carries_state_and_labels(quarter_car_systems):
    z = gen_excitation(160, 0.01, 9)
    schedule = SwitchSchedule(steps=(("C1", 80), ("C2", 80)))
    ts = simulate(quarter_car_systems, schedule, z)
    # the record holds no labels: its schedule gives each sample's condition
    assert ts.names == CHANNEL_NAMES
    column = schedule.label_column()
    assert tuple(column.labels[c] for c in column.codes.tolist()) == ("C1",) * 80 + ("C2",) * 80
    # first C2 output is produced by the state inherited from the C1 segment
    seg1 = simulate(quarter_car_systems, SwitchSchedule(steps=(("C1", 80),)), z[:80])
    np.testing.assert_array_equal(ts.data[:, :80], seg1.data)


def _row_dot(row, x, z):
    """row . [x, z] summed left to right: sum() compensates from Python 3.12."""
    return reduce(add, map(mul, row, x + [z]))


def _generic_simulate(systems, schedule, z_r, x0=(0.0, 0.0, 0.0, 0.0)):
    """Reference recursion for any state and output count, on Python floats."""
    x = list(x0)
    y = []
    t = 0
    for label, duration in schedule.steps:
        sys = systems[label]
        ab = np.column_stack([sys.a, sys.b]).tolist()
        cd = np.column_stack([sys.c, sys.d]).tolist()
        for z in z_r[t:t + duration].tolist():
            y.append([_row_dot(row, x, z) for row in cd])
            x = [_row_dot(row, x, z) for row in ab]
        t += duration
    return np.array(y).T


def test_simulate_relative_displacement_channel(quarter_car_systems):
    # y_O must equal z_s - z_u reproduced by an explicit state recursion
    sys1 = quarter_car_systems["C1"]
    z = gen_excitation(60, 0.01, 10)
    ts = simulate({"C1": sys1}, SwitchSchedule(steps=(("C1", 60),)), z)
    ab = np.column_stack([sys1.a, sys1.b]).tolist()
    x = [0.0] * 4
    for t, z_t in enumerate(z.tolist()):
        assert ts.data[2, t] == x[0] - x[2]
        x = [a0 * x[0] + a1 * x[1] + a2 * x[2] + a3 * x[3] + b * z_t
             for a0, a1, a2, a3, b in ab]


@pytest.mark.parametrize("chunk", [7, SIMULATE_CHUNK_SAMPLES])
def test_simulate_equals_generic_recursion_bit_for_bit(
    quarter_car_systems, monkeypatch, chunk
):
    monkeypatch.setattr(simulator, "SIMULATE_CHUNK_SAMPLES", chunk)
    schedule = SwitchSchedule(steps=(("C1", 70), ("C2", 55), ("C1", 30), ("C2", 1)))
    z = gen_excitation(schedule.total_samples, 0.01, 21)
    x0 = (0.01, -0.2, 0.003, 0.4)
    ts = simulate(quarter_car_systems, schedule, z, x0=np.array(x0))
    np.testing.assert_array_equal(
        ts.data, _generic_simulate(quarter_car_systems, schedule, z, x0)
    )


@pytest.mark.parametrize(
    "spec",
    [NoiseSpec(snr=30.0, seed=5), NoiseSpec(snr=12.0, seed=6, scale="db"),
     NoiseSpec(snr=math.inf, seed=7)],
    ids=["linear", "db", "inf"],
)
@pytest.mark.parametrize("chunk", [7, SIMULATE_CHUNK_SAMPLES])
def test_simulate_noise_equals_add_noise_bit_for_bit(
    quarter_car_systems, monkeypatch, chunk, spec
):
    monkeypatch.setattr(simulator, "SIMULATE_CHUNK_SAMPLES", chunk)
    schedule = SwitchSchedule(steps=(("C1", 70), ("C2", 55), ("C1", 30), ("C2", 1)))
    z = gen_excitation(schedule.total_samples, 0.01, 21)
    noisy = simulate(quarter_car_systems, schedule, z, noise=spec)
    expected = add_noise(simulate(quarter_car_systems, schedule, z), spec)
    assert noisy.data.tobytes() == expected.data.tobytes()
    assert noisy.names == expected.names


@pytest.mark.parametrize(
    "z_scale, snr, scale, error",
    [(0.0, 50.0, "linear", DataError), (1.0, -4000.0, "db", ConfigError),
     (1.0, 1e-320, "linear", ConfigError)],
    ids=["zero-power", "minus-4000-db", "tiny-linear"],
)
def test_simulate_noise_errors_equal_add_noise_errors(
    quarter_car_systems, z_scale, snr, scale, error
):
    schedule = SwitchSchedule(steps=(("C1", 30),))
    z = z_scale * gen_excitation(30, 0.01, 11)
    spec = NoiseSpec(snr=snr, seed=1, scale=scale)
    with pytest.raises(error) as in_place:
        simulate(quarter_car_systems, schedule, z, noise=spec)
    with pytest.raises(error) as on_copy:
        add_noise(simulate(quarter_car_systems, schedule, z), spec)
    assert str(in_place.value) == str(on_copy.value)


def test_simulate_matches_dlsim_per_segment(quarter_car_systems):
    schedule = SwitchSchedule(steps=(("C1", 400), ("C2", 300), ("C1", 250)))
    z = gen_excitation(schedule.total_samples, 0.01, 22)
    ts = simulate(quarter_car_systems, schedule, z)
    x = np.zeros(4)
    t = 0
    for label, duration in schedule.steps:
        sys = quarter_car_systems[label]
        u = z[t:t + duration]
        _, y, xs = scipy.signal.dlsim(
            (sys.a, sys.b[:, None], sys.c, sys.d[:, None], sys.t), u, x0=x
        )
        got = ts.data[:, t:t + duration]
        err = np.max(np.abs(got - y.T), axis=1)
        assert np.all(err <= 1e-12 * np.max(np.abs(y.T), axis=1)), (label, t, err)
        x = sys.a @ xs[-1] + sys.b * u[-1]  # the state carried into the next segment
        t += duration


@pytest.mark.parametrize("n_states, n_outputs", [(2, 3), (4, 2), (5, 3)])
def test_simulate_rejects_non_quarter_car_shape(n_states, n_outputs):
    sys = DiscreteStateSpace(
        a=np.eye(n_states) * 0.5, b=np.ones(n_states),
        c=np.ones((n_outputs, n_states)), d=np.zeros(n_outputs), t=0.1,
    )
    with pytest.raises(DataError, match="not a quarter car"):
        simulate({"Q": sys}, SwitchSchedule(steps=(("Q", 10),)), np.zeros(10))


def test_simulate_rejects_wrong_initial_state(quarter_car_systems):
    with pytest.raises(DataError, match="initial state must have 4 entries"):
        simulate(quarter_car_systems, SwitchSchedule(steps=(("C1", 5),)), np.zeros(5),
                 x0=np.zeros(3))


def test_simulated_csvs_identical_on_every_openblas_kernel(tmp_path):
    # The simulator makes no BLAS call, so the bytes must not depend on the
    # kernel OpenBLAS picks for this CPU (Prescott and Haswell round GEMV and
    # GEMM differently).
    src = os.path.dirname(os.path.dirname(transched.__file__))
    digests = {}
    for kernel in ("Prescott", "Haswell"):
        out = tmp_path / kernel
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run(
            [sys.executable, "-m", "transched.cli", "simulate", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        digests[kernel] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
        }
    # two training CSVs, validation, manifest, and each CSV's parse-cache entry
    assert len(digests["Prescott"]) == 7
    assert digests["Prescott"] == digests["Haswell"]


def test_simulate_length_mismatch(quarter_car_systems):
    with pytest.raises(DataError, match="covers 80"):
        simulate(quarter_car_systems, SwitchSchedule(steps=(("C1", 80),)), np.zeros(70))


def test_simulate_unknown_label(quarter_car_systems):
    with pytest.raises(DataError, match="unknown condition"):
        simulate(quarter_car_systems, SwitchSchedule(steps=(("C9", 10),)), np.zeros(10))


def test_schedule_rejects_zero_duration():
    with pytest.raises(ConfigError, match=">= 1"):
        SwitchSchedule(steps=(("C1", 0),))


# ---------------------------------------------------------------- add_noise


def test_add_noise_clean_passthrough(quarter_car_systems):
    ts = simulate(quarter_car_systems, SwitchSchedule(steps=(("C1", 30),)),
                  gen_excitation(30, 0.01, 11))
    out = add_noise(ts, NoiseSpec(snr=math.inf, seed=1))
    np.testing.assert_array_equal(out.data, ts.data)


def test_add_noise_power_level():
    from transched.dataset import TimeSeriesSet

    rng = np.random.default_rng(12)
    x = rng.normal(0.0, 1.0, 4000)
    ts = TimeSeriesSet(names=("u",), data=x[None, :])
    noisy = add_noise(ts, NoiseSpec(snr=100.0, seed=13))
    added = noisy.data[0] - x
    target = float(np.mean(x**2)) / 100.0
    assert abs(float(np.var(added)) - target) <= 0.10 * target


def test_add_noise_db_interpretation():
    assert NoiseSpec(snr=20.0, seed=1, scale="db").snr_linear == pytest.approx(100.0)
    assert NoiseSpec(snr=50.0, seed=1, scale="db").snr_linear == pytest.approx(1e5)


def test_add_noise_zero_power_channel():
    from transched.dataset import TimeSeriesSet

    ts = TimeSeriesSet(names=("u",), data=np.zeros((1, 10)))
    with pytest.raises(DataError, match="zero power"):
        add_noise(ts, NoiseSpec(snr=50.0, seed=1))


def test_noise_spec_validation():
    with pytest.raises(ConfigError, match="scale"):
        NoiseSpec(snr=50.0, seed=1, scale="percent")
    with pytest.raises(ConfigError, match="positive"):
        NoiseSpec(snr=-1.0, seed=1)
    for scale in ("linear", "db"):
        with pytest.raises(ConfigError, match="nan"):
            NoiseSpec(snr=math.nan, seed=1, scale=scale)
        assert NoiseSpec(snr=math.inf, seed=1, scale=scale).snr_linear == math.inf
    # more dB than a float power ratio holds is as clean as +inf; -inf dB is no SNR
    assert NoiseSpec(snr=4000.0, seed=1, scale="db").snr_linear == math.inf
    with pytest.raises(ConfigError, match="-inf"):
        NoiseSpec(snr=-math.inf, seed=1, scale="db")


@pytest.mark.parametrize("snr, scale", [(-4000.0, "db"), (1e-320, "linear")])
def test_add_noise_infinite_noise_power(quarter_car_systems, snr, scale):
    ts = simulate(quarter_car_systems, SwitchSchedule(steps=(("C1", 30),)),
                  gen_excitation(30, 0.01, 11))
    with pytest.raises(ConfigError, match=r"snr .* channel 'y_I1_a'"):
        add_noise(ts, NoiseSpec(snr=snr, seed=1, scale=scale))
