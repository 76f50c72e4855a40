"""Command-line pipeline: simulate | train | estimate | evaluate.

Settings come from built-in defaults (the two-condition quarter-car
scenario), overridden by an INI-style config file, overridden by flags.
Every command validates its full configuration before writing anything.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

# Only what config resolution needs; each command imports its own layers,
# so e.g. `simulate` never loads the scheduler.
from . import __version__
from .dataset import DEFAULT_C_LIM, MAX_C_LIM, PSEUDO_INPUT, TARGET_OUTPUT, ParseCache
from .errors import ConfigError, DataError, TranschedError

# Stock two-condition scenario: a softly and a stiffly sprung quarter car.
STOCK_CONDITIONS = {
    "C1": {"m_s": 300.0, "m_u": 40.0, "k_s": 2.0e4, "k_r": 1.8e5, "c_s": 1.5e3},
    "C2": {"m_s": 300.0, "m_u": 40.0, "k_s": 4.0e4, "k_r": 2.0e5, "c_s": 2.5e3},
}

# The keys of a [params.<label>] section, the QuarterCarParams fields.
PARAM_KEYS = ("m_s", "m_u", "k_s", "k_r", "c_s")

DEFAULT_CHANNELS = {"y_I1_a": PSEUDO_INPUT, "y_I2": PSEUDO_INPUT, "y_O": TARGET_OUTPUT}


def _typed(kind):
    """Parser of one INI value of a plain type: int, float, bool or str."""

    def parse(where: str, raw: str):
        try:
            if kind is bool:
                if raw.lower() in ("true", "yes", "on", "1"):
                    return True
                if raw.lower() in ("false", "no", "off", "0"):
                    return False
                raise ValueError(raw)
            return kind(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected {kind.__name__}, got {raw!r}") from None

    return parse


def _parse_pairs(where: str, raw: str) -> dict[str, str]:
    """Parse 'label=value, label=value' lists."""
    out: dict[str, str] = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"{where}: expected label=value, got {item!r}")
        label, value = item.split("=", 1)
        label, value = label.strip(), value.strip()
        if label in out:
            raise ConfigError(f"{where}: duplicate label {label!r}")
        out[label] = value
    if not out:
        raise ConfigError(f"{where}: empty list")
    return out


def _parse_schedule(where: str, raw: str) -> list[tuple[str, int]]:
    steps = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError(f"{where}: expected label:samples, got {item!r}")
        label, n = item.split(":", 1)
        steps.append((label.strip(), _typed(int)(where, n.strip())))
    if not steps:
        raise ConfigError(f"{where}: empty schedule")
    return steps


def _parse_priors(where: str, raw: str) -> str | list[float]:
    if raw == "uniform":
        return raw
    try:
        return [float(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(
            f"{where}: expected 'uniform' or comma-separated weights, got {raw!r}"
        ) from None


def _setting(default, *sections: str, key: str | None = None, parse=None):
    """A RunConfig field read from ``key`` (default: the field's name) in the
    INI ``sections``.  The first section always applies, and so does every
    section up to the running command's own, each overriding the ones before
    it.  ``parse(where, raw)`` turns the raw string into the value; by
    default it is the type of ``default``."""
    meta = {"sections": sections, "key": key, "parse": parse or _typed(type(default))}
    if isinstance(default, (dict, list)):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Fully resolved settings for one command invocation.

    Each INI setting is declared once, here, and the INI may hold no other
    key, apart from the channel names of ``[channels]`` and the PARAM_KEYS
    of each ``[params.<label>]``; a flag sets the attribute named by its
    argparse ``dest``.
    """

    command: str
    out: str = _setting("out", "common")
    order: int = _setting(10, "common")
    c_lim: float = _setting(DEFAULT_C_LIM, "common")
    seed: int = _setting(20260808, "common")
    sample_time: float = _setting(0.1, "common")
    detrend: bool = _setting(False, "common")
    channels: dict = field(default_factory=DEFAULT_CHANNELS.copy)  # the [channels] section
    aux_output: str = _setting("y_I2", "decomposition")
    # simulate
    params: dict = field(default_factory=dict)  # [params.<label>]: {parameter: value}
    train_samples: int = _setting(1000, "simulate")
    excitation_variance: float = _setting(0.01, "simulate")
    snr: float = _setting(50.0, "simulate")
    snr_scale: str = _setting("linear", "simulate")
    schedule: list = _setting([("C1", 80), ("C2", 80)], "simulate", parse=_parse_schedule)
    # train
    train_data: dict = _setting({}, "train", key="data", parse=_parse_pairs)  # label -> path
    store: str = _setting("", "train", "estimate", "evaluate")
    # estimate / evaluate
    data: str = _setting("", "estimate")
    window: int = _setting(20, "estimate", "evaluate")
    priors: str | list = _setting("uniform", "estimate", "evaluate", parse=_parse_priors)
    pooled: bool = _setting(False, "estimate", "evaluate")
    evaluate_data: dict = _setting({}, "evaluate", key="data", parse=_parse_pairs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transched",
        description="Scheduled FIR transmissibility estimation for switching linear systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "generate quarter-car training and switching validation CSVs",
        "train": "fit the primary/auxiliary families and write the model store",
        "estimate": "classify windows and estimate the target from online data",
        "evaluate": "compare estimators and classifier variants on labeled records",
    }
    # each dest is a RunConfig attribute; None leaves the config file's value
    for name, help_text in helps.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="INI config file; flags override its values")
        p.add_argument("--seed", type=int, help="root RNG seed")
        p.add_argument("--order", type=int, help="FIR model order n")
        p.add_argument("--clim", type=float, dest="c_lim", metavar="CLIM",
                       help="condition-number cap for ridge")
        p.add_argument("--window", type=int, help="online classification window (samples)")
        p.add_argument("--pooled", action="store_const", const=True,
                       help="classify with one pooled residual variance")
        p.add_argument("--snr", type=float, help="measurement SNR")
        p.add_argument("--snr-db", action="store_const", const="db", dest="snr_scale",
                       help="interpret --snr in decibels instead of a linear power ratio")
        p.add_argument("--out", help="output directory")
        if name in ("train", "estimate", "evaluate"):
            p.add_argument("--store", help="model store path")
        if name == "estimate":
            p.add_argument("--data", help="online CSV path")
    return parser


def _read_ini(path: str) -> configparser.ConfigParser:
    """The INI file at ``path``.  A section or key that no setting reads is
    a ConfigError naming it, so a misspelling never falls back silently."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # channel names are case-sensitive
    try:
        with open(path, encoding="utf-8") as f:
            cp.read_file(f)
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: byte 0x{e.object[e.start]:02x} is not valid UTF-8") from None
    except OSError as e:
        raise ConfigError(f"{path}: cannot read: {e.strerror or e}") from None
    known: dict[str, set[str]] = {}
    for f in fields(RunConfig):
        for section in f.metadata.get("sections", ()):
            known.setdefault(section, set()).add(f.metadata["key"] or f.name)
    for section, keys in cp.items():  # [DEFAULT] first: every section would get its keys
        if section == "channels":
            continue  # its keys are channel names
        allowed = PARAM_KEYS if section.startswith("params.") else known.get(section, ())
        for key in keys:
            if key not in allowed:
                what = "key" if allowed else "section"
                raise ConfigError(f"{path}: [{section}] {key}: unknown {what}")
    return cp


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, config file, and flags into a validated RunConfig."""
    cfg = RunConfig(command=args.command)
    cp = _read_ini(args.config) if args.config else configparser.ConfigParser()
    for f in fields(RunConfig):
        key = f.metadata.get("key") or f.name
        sections = f.metadata.get("sections", ())
        own = sections.index(args.command) if args.command in sections else 0
        given = [s for s in sections[: own + 1] if cp.has_option(s, key)]
        if given:
            section, parse = given[-1], f.metadata["parse"]
            setattr(cfg, f.name, parse(f"[{section}] {key}", cp.get(section, key)))
    if cp.has_section("channels"):
        cfg.channels = dict(cp.items("channels"))
    raw_params = {
        s.split(".", 1)[1]: dict(cp.items(s)) for s in cp.sections() if s.startswith("params.")
    }
    for label, values in (raw_params or STOCK_CONDITIONS).items():
        params = {}
        for key in PARAM_KEYS:
            if key not in values:
                raise ConfigError(f"[params.{label}] missing parameter {key}")
            params[key] = _typed(float)(f"[params.{label}] {key}", str(values[key]))
        # the QuarterCarParams check, without importing the simulator here
        for key, v in params.items():
            if v <= 0:
                raise ConfigError(f"quarter-car parameter {key} must be positive, got {v}")
        cfg.params[label] = params
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)

    # path defaults derived from the output directory
    if not cfg.store:
        cfg.store = os.path.join(cfg.out, "store.json")
    if not cfg.train_data:
        cfg.train_data = {
            label: os.path.join(cfg.out, f"train_{label}.csv") for label in cfg.params
        }
    if not cfg.data:
        cfg.data = os.path.join(cfg.out, "validation.csv")
    if not cfg.evaluate_data:
        cfg.evaluate_data = {"VAL": cfg.data}

    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """Config checks every command makes before it reads any file."""
    if cfg.order < 0:
        raise ConfigError(f"order must be non-negative, got {cfg.order}")
    if not 1.0 < cfg.c_lim <= MAX_C_LIM:
        raise ConfigError(f"c_lim must exceed 1 and be at most {MAX_C_LIM:g}, got {cfg.c_lim}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if cfg.sample_time <= 0:
        raise ConfigError(f"sample_time must be positive, got {cfg.sample_time}")
    roles = set(cfg.channels.values())
    if not roles <= {PSEUDO_INPUT, TARGET_OUTPUT}:
        raise ConfigError(
            f"channel roles must be {PSEUDO_INPUT} or {TARGET_OUTPUT}, got {sorted(roles)}"
        )
    pseudo = [n for n, r in cfg.channels.items() if r == PSEUDO_INPUT]
    targets = [n for n, r in cfg.channels.items() if r == TARGET_OUTPUT]
    if len(targets) != 1:
        raise ConfigError(f"exactly one target_output channel required, got {targets}")
    if len(pseudo) < 2:
        raise ConfigError("need at least two pseudo_input channels for the decomposition")
    if cfg.aux_output not in pseudo:
        raise ConfigError(
            f"aux_output {cfg.aux_output!r} is not a pseudo_input channel {pseudo}"
        )
    if cfg.command == "simulate":
        from .simulator import CHANNEL_NAMES, NoiseSpec, SwitchSchedule

        if cfg.train_samples <= cfg.order:
            raise ConfigError(
                f"train_samples {cfg.train_samples} must exceed the FIR order {cfg.order}"
            )
        if cfg.excitation_variance <= 0:
            raise ConfigError(
                f"excitation_variance must be positive, got {cfg.excitation_variance}"
            )
        NoiseSpec(snr=cfg.snr, seed=cfg.seed, scale=cfg.snr_scale)
        for label, _ in cfg.schedule:  # before SwitchSchedule checks the durations
            if label not in cfg.params:
                raise ConfigError(f"schedule references unknown condition {label!r}")
        schedule = SwitchSchedule(steps=tuple(cfg.schedule))
        total = schedule.total_samples
        # numpy rejects an array larger than the address space before allocating
        max_samples = sys.maxsize // (8 * len(CHANNEL_NAMES))
        for name, n in (("train_samples", cfg.train_samples), ("schedule total", total)):
            if n > max_samples:
                raise ConfigError(f"{name} {n} exceeds the {max_samples} samples a record holds")
    if cfg.command in ("estimate", "evaluate"):
        if cfg.window <= 0:
            raise ConfigError(f"window must be positive, got {cfg.window}")
        if isinstance(cfg.priors, list):
            from .scheduler import Prior

            Prior.from_weights(cfg.priors)


def _resolve_prior(cfg: RunConfig, q: int):
    from .scheduler import Prior

    if cfg.priors == "uniform":
        return Prior.uniform(q)
    weights = list(cfg.priors)
    if len(weights) != q:
        raise ConfigError(
            f"priors has {len(weights)} weights but the store holds {q} conditions"
        )
    return Prior.from_weights(weights)


def _load_record(
    cfg: RunConfig,
    cache: ParseCache,
    path: str,
    condition_label: str | None,
    require_target: bool,
    order: int,
    n_params: int = 0,
):
    """Load a CSV with the configured schema through the command's parse
    ``cache``; the target column is optional for online data unless the
    caller needs ground truth.  The record must have more samples than the
    FIR ``order``, and a training record must give more regression rows than
    its model's ``n_params``."""
    from .dataset import detrend_mean, load_csv, read_csv_header

    header = read_csv_header(path)
    schema = dict(cfg.channels)
    target = next(n for n, r in schema.items() if r == TARGET_OUTPUT)
    if target not in header:
        if require_target:
            raise DataError(f"{path}: ground-truth channel {target!r} missing")
        del schema[target]
    ts = load_csv(
        path, schema, sample_rate=1.0 / cfg.sample_time, condition_label=condition_label,
        cache=cache,
    )
    if ts.n_samples <= order:
        raise DataError(
            f"{path}: {ts.n_samples} samples are too few for FIR order {order}; "
            f"need at least {order + 1}"
        )
    if ts.n_samples - order <= n_params:
        raise DataError(
            f"{path}: condition {condition_label!r}: {ts.n_samples - order} regression rows "
            f"are too few for {n_params} FIR parameters at order {order}; "
            f"need at least {order + n_params + 1} samples"
        )
    return detrend_mean(ts) if cfg.detrend else ts


def cmd_simulate(cfg: RunConfig) -> int:
    import json

    import numpy as np

    from .dataset import write_csv
    from .simulator import (
        NoiseSpec,
        QuarterCarParams,
        SwitchSchedule,
        build_continuous,
        c2d_zoh,
        gen_excitation,
        simulate,
    )

    systems = {
        label: c2d_zoh(build_continuous(QuarterCarParams(**p)), cfg.sample_time)
        for label, p in cfg.params.items()
    }
    # (file, schedule steps, condition label) per record, validation last
    records = [
        (f"train_{label}.csv", ((label, cfg.train_samples),), label) for label in cfg.params
    ] + [("validation.csv", tuple(cfg.schedule), "validation")]
    # one independent (excitation, noise) seed pair per record
    state = np.random.SeedSequence(cfg.seed).generate_state(2 * len(records))
    csv_names = [name for name, _, _ in records]
    manifest_name = "simulate_manifest.json"
    cache = ParseCache(cfg.out)
    with _staged_outputs(cfg.out, [*csv_names, manifest_name], cache) as staged:
        for k, (name, steps, label) in enumerate(records):
            schedule = SwitchSchedule(steps=steps)
            z = gen_excitation(schedule.total_samples, cfg.excitation_variance, int(state[2 * k]))
            noise = NoiseSpec(snr=cfg.snr, seed=int(state[2 * k + 1]), scale=cfg.snr_scale)
            ts = simulate(systems, schedule, z, condition_label=label, noise=noise)
            if name != "validation.csv":
                ts = replace(ts, sample_labels=None)  # no true_label column
            written = write_csv(ts, staged[name])
            cache.add_written(os.path.join(cfg.out, name), written, ts, cfg.channels)
        manifest = {
            "format": "transched-simulate-manifest v1",
            "seed": cfg.seed,
            "sample_time": cfg.sample_time,
            "order_default": cfg.order,
            "train_samples": cfg.train_samples,
            "excitation_variance": cfg.excitation_variance,
            "snr": "clean" if cfg.snr == math.inf else cfg.snr,  # JSON has no infinity
            "snr_scale": cfg.snr_scale,
            "schedule": [[label, n] for label, n in cfg.schedule],
            "conditions": cfg.params,
            "files": csv_names,
        }
        with open(staged[manifest_name], "w") as f:
            json.dump(manifest, f, indent=2)
            f.write("\n")
    for name in csv_names:
        print(f"wrote {os.path.join(cfg.out, name)}")
    return 0


@contextmanager
def _staged_outputs(out: str, names: list[str], cache: ParseCache):
    """Yield a temporary path in ``out`` for each file name; after the body
    succeeds, move every file into place, then commit the parse ``cache``.
    If the body fails, the temporary files and the cache's staged entries
    are removed and ``out`` is left as it was.  An ``out`` that is not a
    directory, or a destination that is one, is a ConfigError."""
    if os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"output directory {out} exists and is not a directory")
    finals = {name: os.path.join(out, name) for name in names}
    for path in finals.values():
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
    created = not os.path.exists(out)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {out}: {e.strerror or e}") from None
    staged = {name: os.path.join(out, f".{name}.{os.getpid()}.tmp") for name in names}
    try:
        yield staged
        for name in names:
            os.replace(staged[name], finals[name])
        cache.commit()
    except BaseException as e:
        for path in staged.values():
            if os.path.exists(path):
                os.remove(path)
        cache.discard()
        if created and not os.listdir(out):
            os.rmdir(out)
        if isinstance(e, OSError):
            raise ConfigError(f"cannot write to {out}: {e.strerror or e}") from None
        raise


def cmd_train(cfg: RunConfig) -> int:
    from .dataset import signal_power
    from .transmissibility import fit_average, save_store, train_families

    # the primary models take every pseudo-input, so they have the most parameters
    n_pseudo = list(cfg.channels.values()).count(PSEUDO_INPUT)
    cache = ParseCache(cfg.out)
    records = [
        _load_record(cfg, cache, path, label, require_target=True, order=cfg.order,
                     n_params=n_pseudo * (cfg.order + 1))
        for label, path in cfg.train_data.items()
    ]
    g, h = train_families(records, cfg.aux_output, cfg.order, cfg.c_lim)
    avg = fit_average(records, g.input_channel_names, g.output_channel_name, cfg.order, cfg.c_lim)
    store_dir, store_name = os.path.split(cfg.store)
    with _staged_outputs(store_dir or os.curdir, [store_name], cache) as staged:
        save_store(staged[store_name], g, h, average=avg, c_lim=cfg.c_lim)
    print(f"wrote {cfg.store} ({len(g)} conditions, order {cfg.order})")
    print("condition  model  sigma2        rho           kappa")
    for label, gm, hm in zip(g.labels, g.models, h.models):
        for tag, m in (("G", gm), ("H", hm)):
            print(
                f"{label:<10s} {tag:<6s}{m.sigma2:<14.6g}{m.rho:<14.6g}{m.kappa_after:.6g}"
            )
    print("per-channel signal power (aux_output candidates):")
    for ts in records:
        powers = ", ".join(f"{n}={v:.6g}" for n, v in signal_power(ts).items())
        print(f"  {ts.condition_label}: {powers}")
    return 0


def cmd_estimate(cfg: RunConfig) -> int:
    from .scheduler import schedule_estimate, write_sample_trace, write_window_trace
    from .transmissibility import load_store

    g, h, _ = load_store(cfg.store)
    if cfg.window <= g.order:
        raise ConfigError(
            f"window {cfg.window} must exceed the stored FIR order {g.order}"
        )
    cache = ParseCache(cfg.out)
    online = _load_record(cfg, cache, cfg.data, None, require_target=False, order=g.order)
    prior = _resolve_prior(cfg, len(g))
    trace = schedule_estimate(g, h, online, prior, cfg.window, pooled=cfg.pooled)
    names = ["trace_windows.csv", "trace_samples.csv"]
    with _staged_outputs(cfg.out, names, cache) as staged:
        write_window_trace(trace, staged[names[0]])
        write_sample_trace(trace, staged[names[1]])
    for name in names:
        print(f"wrote {os.path.join(cfg.out, name)}")
    print(f"chosen sequence: {' '.join(trace.chosen_labels())}")
    if cfg.pooled:
        print("classifier variant: pooled variance")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    import numpy as np

    from .evaluation import (
        compare_report,
        write_accuracy_csv,
        write_report_csv,
        write_summary_csv,
    )
    from .scheduler import schedule_estimate, window_rss
    from .transmissibility import load_store, predict_record

    g, h, avg = load_store(cfg.store)
    if avg is None:
        raise DataError(
            f"{cfg.store} has no pooled-data average model; re-run train to add it"
        )
    if cfg.window <= g.order:
        raise ConfigError(
            f"window {cfg.window} must exceed the stored FIR order {g.order}"
        )
    prior = _resolve_prior(cfg, len(g))
    cache = ParseCache(cfg.out)
    records = [
        _load_record(cfg, cache, path, label, require_target=True, order=g.order)
        for label, path in cfg.evaluate_data.items()
    ]
    predictions = {}
    variant_traces = {"full": {}, "pooled": {}}
    for ts in records:
        # each member predicts each record once, into one array filled row by
        # row: separate per-member arrays would raise the peak RSS
        preds = np.empty((len(g), ts.n_samples - g.order))
        for k, model in enumerate(g.models):
            preds[k] = predict_record(model, ts)
        predictions[ts.condition_label] = preds
        rss = window_rss(h, ts, cfg.window)  # only sigma2 differs between variants
        for variant, pooled in (("full", False), ("pooled", True)):
            variant_traces[variant][ts.condition_label] = schedule_estimate(
                g, h, ts, prior, cfg.window, pooled=pooled, predictions=preds, rss=rss
            )
    scheduled = "pooled" if cfg.pooled else "full"
    report = compare_report(g, avg, records, variant_traces, predictions, scheduled)
    writers = {
        "report.csv": write_report_csv,
        "report_summary.csv": write_summary_csv,
        "report_accuracy.csv": write_accuracy_csv,
    }
    with _staged_outputs(cfg.out, list(writers), cache) as staged:
        for name, write in writers.items():
            write(report, staged[name])
    for name in writers:
        print(f"wrote {os.path.join(cfg.out, name)}")
    print("estimator   mean FIT   std FIT")
    for name, mean, std in report.summary():
        print(f"{name:<12s}{mean:>8.2f}% {std:>8.2f}%")
    for variant in sorted(report.accuracies):
        print(f"accuracy ({variant} variance): {report.accuracies[variant]:.3f}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "estimate": cmd_estimate,
    "evaluate": cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except TranschedError as e:
        print(f"{e.prefix}: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
