"""Shared fixtures: the two-condition quarter-car scenario from the docs."""

import pytest

from transched.dataset import TimeSeriesSet
from transched.simulator import (
    NoiseSpec,
    QuarterCarParams,
    SwitchSchedule,
    add_noise,
    build_continuous,
    c2d_zoh,
    gen_excitation,
    simulate,
)

CONDITION_PARAMS = {
    "C1": QuarterCarParams(m_s=300.0, m_u=40.0, k_s=2.0e4, k_r=1.8e5, c_s=1.5e3),
    "C2": QuarterCarParams(m_s=300.0, m_u=40.0, k_s=4.0e4, k_r=2.0e5, c_s=2.5e3),
}

SAMPLE_TIME = 0.1
EXCITATION_VARIANCE = 0.01


@pytest.fixture(scope="session")
def quarter_car_systems():
    return {
        label: c2d_zoh(build_continuous(p), SAMPLE_TIME)
        for label, p in CONDITION_PARAMS.items()
    }


def make_training_record(
    systems, label, n_samples, seed, snr=None, snr_scale="linear"
) -> TimeSeriesSet:
    """Single-condition record; by default noise-free."""
    z = gen_excitation(n_samples, EXCITATION_VARIANCE, seed)
    ts = simulate(systems, SwitchSchedule(steps=((label, n_samples),)), z)
    if snr is not None:
        ts = add_noise(ts, NoiseSpec(snr=snr, seed=seed + 7_000_003, scale=snr_scale))
    return ts


def make_switching_record(
    systems, schedule_steps, seed, snr=None, snr_scale="linear"
) -> TimeSeriesSet:
    schedule = SwitchSchedule(steps=tuple(schedule_steps))
    z = gen_excitation(schedule.total_samples, EXCITATION_VARIANCE, seed)
    ts = simulate(systems, schedule, z)
    if snr is not None:
        ts = add_noise(ts, NoiseSpec(snr=snr, seed=seed + 7_000_003, scale=snr_scale))
    return ts


@pytest.fixture(scope="session")
def clean_c1_pair(quarter_car_systems):
    """Two independent noise-free C1 records (train + held-out)."""
    train = make_training_record(quarter_car_systems, "C1", 1000, seed=101)
    heldout = make_training_record(quarter_car_systems, "C1", 1000, seed=202)
    return train, heldout


@pytest.fixture(scope="session")
def clean_training_pair(quarter_car_systems):
    """Noise-free C1 and C2 training records sharing the channel schema,
    filed under their condition labels."""
    return {
        "C1": make_training_record(quarter_car_systems, "C1", 1000, seed=303),
        "C2": make_training_record(quarter_car_systems, "C2", 1000, seed=404),
    }
