"""Scheduled FIR transmissibility estimation for switching linear systems.

Offline, one FIR model pair per working condition is identified from
measured outputs alone: a primary model from all pseudo-inputs to the
target output, and an auxiliary model between two halves of the
pseudo-inputs.  Online, a windowed Bayes classifier over the auxiliary
family picks the active condition and schedules the matching primary
model to estimate the target, without ever observing the excitation.

``import transched`` loads no submodule: each name below is imported from
its module the first time it is used (PEP 562), so a command that never
touches, say, the simulator never pays for importing it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "dataset": (
        "LabelColumn",
        "RegressionMatrices",
        "TimeSeriesSet",
        "build_regressor",
        "detrend_mean",
        "load_csv",
        "signal_power",
        "write_csv",
    ),
    "errors": ("ConfigError", "DataError", "NumericalError", "TranschedError"),
    "evaluation": (
        "ComparisonReport",
        "compare_report",
        "fit_metric",
    ),
    "regression": (
        "DEFAULT_C_LIM",
        "RidgeSolution",
        "eigen_extremes",
        "estimate_variance",
        "ridge_fit",
        "ridge_fit_pooled",
        "ridge_solve",
        "select_rho",
    ),
    "scheduler": (
        "PosteriorResult",
        "Prior",
        "ScheduleTrace",
        "classify",
        "log_evidence",
        "schedule_estimate",
    ),
    "simulator": (
        "ContinuousStateSpace",
        "DiscreteStateSpace",
        "NoiseSpec",
        "QuarterCarParams",
        "SwitchSchedule",
        "add_noise",
        "build_continuous",
        "c2d_zoh",
        "gen_excitation",
        "matrix_exp",
        "simulate",
    ),
    "transmissibility": (
        "FirModel",
        "TransmissibilityFamily",
        "fit_average",
        "fit_fir",
        "load_store",
        "predict",
        "predict_record",
        "save_store",
        "train_families",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, e.g. transched.simulator
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value
