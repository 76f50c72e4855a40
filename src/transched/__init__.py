"""Scheduled FIR transmissibility estimation for switching linear systems.

Offline, one FIR model pair per working condition is identified from
measured outputs alone: a primary model from all pseudo-inputs to the
target output, and an auxiliary model between two halves of the
pseudo-inputs.  Online, a windowed Bayes classifier over the auxiliary
family picks the active condition and schedules the matching primary
model to estimate the target, without ever observing the excitation.
"""

from .dataset import (
    Decomposition,
    PSEUDO_INPUT,
    RegressionMatrices,
    TARGET_OUTPUT,
    TimeSeriesSet,
    build_regressor,
    decompose,
    detrend_mean,
    load_csv,
    signal_power,
    write_csv,
)
from .errors import ConfigError, DataError, NumericalError, TranschedError
from .evaluation import (
    ComparisonReport,
    accuracy,
    compare_report,
    fit_metric,
    ideal_fit,
    indicator,
)
from .regression import (
    DEFAULT_C_LIM,
    EigenExtremes,
    RidgeSolution,
    eigen_extremes,
    estimate_variance,
    mle_fit,
    ridge_fit,
    ridge_solve,
    select_rho,
)
from .scheduler import (
    PosteriorResult,
    Prior,
    ScheduleTrace,
    classify,
    log_evidence,
    pooled_sigma2,
    schedule_estimate,
)
from .simulator import (
    ContinuousStateSpace,
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
from .transmissibility import (
    FirModel,
    TransmissibilityFamily,
    fit_average,
    fit_fir,
    load_store,
    predict,
    predict_record,
    save_store,
    train_families,
)

__version__ = "0.1.0"
