"""Quarter-car switching simulator with exact zero-order-hold discretization.

The plant is the standard two-mass quarter car driven by an unknown road
displacement.  State x = [z_s, z_s', z_u, z_u']; measured outputs are the
unsprung-mass acceleration, the sprung-mass acceleration, and the
suspension deflection z_s - z_u (the estimation target).  A switching
schedule plays several parameter sets back to back with the state carried
across switches, which reproduces the brief physical transient after a
switch instead of resetting it away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, repeat
from operator import mul
from typing import Mapping

import numpy as np

from .dataset import PSEUDO_INPUT, TARGET_OUTPUT, TimeSeriesSet
from .errors import ConfigError, DataError

# Channel order matches the output matrix rows.
CHANNEL_NAMES = ("y_I1_a", "y_I2", "y_O")
CHANNEL_ROLES = (PSEUDO_INPUT, PSEUDO_INPUT, TARGET_OUTPUT)
N_STATES = 4  # x = [z_s, z_s', z_u, z_u']

# Samples stepped per chunk by ``simulate``: the outputs of one chunk are
# Python floats, so memory stays flat whatever the record length.
SIMULATE_CHUNK_SAMPLES = 1024


@dataclass(frozen=True)
class QuarterCarParams:
    """Physical parameters: sprung/unsprung mass, spring, tire, damper."""

    m_s: float
    m_u: float
    k_s: float
    k_r: float
    c_s: float

    def __post_init__(self) -> None:
        for name in ("m_s", "m_u", "k_s", "k_r", "c_s"):
            v = getattr(self, name)
            if v <= 0:
                raise ConfigError(f"quarter-car parameter {name} must be positive, got {v}")


@dataclass(frozen=True, eq=False)
class ContinuousStateSpace:
    a: np.ndarray  # (n, n)
    b: np.ndarray  # (n,)
    c: np.ndarray  # (p, n)
    d: np.ndarray  # (p,)


@dataclass(frozen=True, eq=False)
class DiscreteStateSpace:
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    t: float


@dataclass(frozen=True)
class SwitchSchedule:
    """Ordered (condition label, duration in samples) segments."""

    steps: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple((str(l), int(n)) for l, n in self.steps))
        for label, n in self.steps:
            if n < 1:
                raise ConfigError(f"schedule duration for {label!r} must be >= 1, got {n}")

    @property
    def total_samples(self) -> int:
        return sum(n for _, n in self.steps)

    def labels_per_sample(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(repeat(label, n) for label, n in self.steps))


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-noise request: SNR (power ratio, or dB) and a seed.

    ``snr=math.inf`` means clean output, and so does a dB value too large
    for a float power ratio.  ``scale`` is "linear" for a plain power ratio
    or "db" for decibels.
    """

    snr: float
    seed: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.scale not in ("linear", "db"):
            raise ConfigError(f"snr_scale must be linear or db, got {self.scale!r}")
        if math.isnan(self.snr):
            raise ConfigError("snr must be a number, got nan")
        if self.scale == "linear" and self.snr <= 0:
            raise ConfigError(f"linear snr must be positive, got {self.snr}")
        if self.snr == -math.inf:
            raise ConfigError("snr of -inf db asks for infinite noise")

    @property
    def snr_linear(self) -> float:
        if self.scale == "db":
            try:
                return 10.0 ** (self.snr / 10.0)
            except OverflowError:
                return math.inf
        return self.snr


def build_continuous(p: QuarterCarParams) -> ContinuousStateSpace:
    """Continuous-time quarter-car matrices for one parameter set."""
    ks_ms = p.k_s / p.m_s
    cs_ms = p.c_s / p.m_s
    ks_mu = p.k_s / p.m_u
    cs_mu = p.c_s / p.m_u
    a = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-ks_ms, -cs_ms, ks_ms, cs_ms],
            [0.0, 0.0, 0.0, 1.0],
            [ks_mu, cs_mu, -(p.k_s + p.k_r) / p.m_u, -cs_mu],
        ]
    )
    b = np.array([0.0, 0.0, 0.0, p.k_r / p.m_u])
    c = np.array(
        [
            [ks_mu, cs_mu, -(p.k_s + p.k_r) / p.m_u, -cs_mu],
            [-ks_ms, -cs_ms, ks_ms, cs_ms],
            [1.0, 0.0, -1.0, 0.0],
        ]
    )
    d = np.array([p.k_r / p.m_u, 0.0, 0.0])
    return ContinuousStateSpace(a=a, b=b, c=c, d=d)


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring around a Taylor core.

    The argument is halved until its 1-norm is below 0.25, the series is
    summed to machine precision, and the result squared back up.  The
    matrix products are taken on Python floats (see ``_matmul``), so the
    result does not depend on the BLAS kernel.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DataError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DataError("matrix exponential requires finite entries")
    n = m.shape[0]
    norm = float(np.max(np.abs(m).sum(axis=0))) if n else 0.0
    squarings = 0
    if norm > 0.25:
        squarings = max(0, int(math.ceil(math.log2(norm / 0.25))))
    scaled = (m / (2.0**squarings)).tolist()
    result = np.eye(n).tolist()
    term = result
    for k in range(1, 40):
        term = [[v / k for v in row] for row in _matmul(term, scaled)]
        result = [[u + v for u, v in zip(ru, rv)] for ru, rv in zip(result, term)]
        if float(np.max(np.abs(term))) <= 1.0e-20 * max(1.0, float(np.max(np.abs(result)))):
            break
    for _ in range(squarings):
        result = _matmul(result, result)
    return np.array(result).reshape(n, n)


def _matmul(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    """Product of two matrices given as row lists.  Each entry is the
    correctly rounded sum of its products, so it depends neither on the
    summation order nor on a BLAS kernel."""
    cols = list(zip(*b))
    return [[math.fsum(map(mul, row, col)) for col in cols] for row in a]


def c2d_zoh(ss: ContinuousStateSpace, t: float) -> DiscreteStateSpace:
    """Exact zero-order-hold discretization at sampling time t.

    The state matrix is exp(a t).  The input vector is the convergent
    series sum_k a^k t^(k+1)/(k+1)! b, evaluated inversion-free through
    the exponential of the (a, b) block matrix; for invertible a it
    coincides with a^-1 (exp(a t) - I) b.
    """
    if t <= 0:
        raise ConfigError(f"sampling time must be positive, got {t}")
    n = ss.a.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = ss.a * t
    aug[:n, n] = ss.b * t
    e = matrix_exp(aug)
    return DiscreteStateSpace(
        a=e[:n, :n], b=e[:n, n].copy(), c=ss.c.copy(), d=ss.d.copy(), t=t
    )


def gen_excitation(
    n_samples: int, variance: float, seed: int | np.random.Generator
) -> np.ndarray:
    """White zero-mean Gaussian excitation, reproducible per seed."""
    if variance <= 0:
        raise ConfigError(f"excitation variance must be positive, got {variance}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.normal(0.0, math.sqrt(variance), int(n_samples))


def simulate(
    systems: Mapping[str, DiscreteStateSpace],
    schedule: SwitchSchedule,
    z_r: np.ndarray,
    x0: np.ndarray | None = None,
    condition_label: str | None = None,
    noise: NoiseSpec | None = None,
) -> TimeSeriesSet:
    """Run the switching recursion x+ = A_q x + b_q z, y = C_q x + d_q z.

    Every system must be a quarter car: 4 states and the 3 outputs of
    ``CHANNEL_NAMES``.  Each state and output component is a Python float
    sum taken left to right, ``a_i0*x0 + ... + a_i3*x3 + b_i*z``, so the
    record is the same on every machine and BLAS kernel.  The state is
    carried continuously across switches.  The result carries the active
    condition per sample in ``sample_labels``.

    With ``noise``, measurement noise is added in place to the output
    array before it is wrapped, so the record holds one float array; the
    result equals ``add_noise`` of the clean record bit for bit.
    """
    z_r = np.asarray(z_r, dtype=float).ravel()
    if schedule.total_samples != z_r.shape[0]:
        raise DataError(
            f"schedule covers {schedule.total_samples} samples but excitation "
            f"has {z_r.shape[0]}"
        )
    for label, _ in schedule.steps:
        if label not in systems:
            raise DataError(f"schedule references unknown condition {label!r}")
    p = len(CHANNEL_NAMES)
    for label, sys in systems.items():
        shapes = (sys.a.shape, sys.b.shape, sys.c.shape, sys.d.shape)
        if shapes != ((N_STATES, N_STATES), (N_STATES,), (p, N_STATES), (p,)):
            raise DataError(
                f"condition {label!r} is not a quarter car with {N_STATES} states and "
                f"{p} outputs: a, b, c, d have shapes {shapes}"
            )
    x = [0.0] * N_STATES if x0 is None else np.asarray(x0, dtype=float).ravel().tolist()
    if len(x) != N_STATES:
        raise DataError(f"initial state must have {N_STATES} entries, got {len(x)}")
    x0, x1, x2, x3 = x
    y = np.empty((p, z_r.shape[0]))
    t = 0
    for label, duration in schedule.steps:
        sys = systems[label]
        a, c = sys.a.tolist(), sys.c.tolist()
        a00, a01, a02, a03 = a[0]
        a10, a11, a12, a13 = a[1]
        a20, a21, a22, a23 = a[2]
        a30, a31, a32, a33 = a[3]
        b0, b1, b2, b3 = sys.b.tolist()
        c00, c01, c02, c03 = c[0]
        c10, c11, c12, c13 = c[1]
        c20, c21, c22, c23 = c[2]
        d0, d1, d2 = sys.d.tolist()
        for lo in range(t, t + duration, SIMULATE_CHUNK_SAMPLES):
            hi = min(lo + SIMULATE_CHUNK_SAMPLES, t + duration)
            y0: list[float] = []
            y1: list[float] = []
            y2: list[float] = []
            for z in z_r[lo:hi].tolist():
                y0.append(c00 * x0 + c01 * x1 + c02 * x2 + c03 * x3 + d0 * z)
                y1.append(c10 * x0 + c11 * x1 + c12 * x2 + c13 * x3 + d1 * z)
                y2.append(c20 * x0 + c21 * x1 + c22 * x2 + c23 * x3 + d2 * z)
                x0, x1, x2, x3 = (
                    a00 * x0 + a01 * x1 + a02 * x2 + a03 * x3 + b0 * z,
                    a10 * x0 + a11 * x1 + a12 * x2 + a13 * x3 + b1 * z,
                    a20 * x0 + a21 * x1 + a22 * x2 + a23 * x3 + b2 * z,
                    a30 * x0 + a31 * x1 + a32 * x2 + a33 * x3 + b3 * z,
                )
            y[0, lo:hi] = y0
            y[1, lo:hi] = y1
            y[2, lo:hi] = y2
        t += duration
    if noise is not None:
        _add_noise_in_place(y, CHANNEL_NAMES, noise)
    return TimeSeriesSet(
        sample_rate=1.0 / next(iter(systems.values())).t,
        names=CHANNEL_NAMES,
        roles=CHANNEL_ROLES,
        data=y,
        condition_label=condition_label,
        sample_labels=schedule.labels_per_sample(),
    )


def add_noise(ts: TimeSeriesSet, spec: NoiseSpec) -> TimeSeriesSet:
    """Add independent white Gaussian noise per channel at the given SNR.

    Noise power is the channel's mean-square power divided by the linear
    SNR.  An infinite SNR adds none; one so small that the noise power is
    not a finite float is a ConfigError.
    """
    data = np.array(ts.data)
    _add_noise_in_place(data, ts.names, spec)
    return replace(ts, data=data)


def _add_noise_in_place(data: np.ndarray, names: tuple[str, ...], spec: NoiseSpec) -> None:
    """The noise of ``add_noise``, added to the rows of ``data`` in place."""
    snr = spec.snr_linear
    if math.isinf(snr):
        return
    rng = np.random.default_rng(spec.seed)
    for i, name in enumerate(names):
        power = float(np.mean(data[i] ** 2))
        if power == 0.0:
            raise DataError(f"channel {name!r} has zero power; cannot scale noise to finite SNR")
        noise_power = power / snr if snr > 0.0 else math.inf  # a dB snr can underflow to 0
        if not math.isfinite(noise_power):
            raise ConfigError(
                f"snr {spec.snr} ({spec.scale}) makes the noise power of channel "
                f"{name!r} infinite"
            )
        data[i] += rng.normal(0.0, math.sqrt(noise_power), data.shape[1])
