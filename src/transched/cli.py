"""Command-line pipeline: simulate | train | estimate | evaluate.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import atexit
import gc
import math
import os
import sys
from contextlib import contextmanager

# Only what every command needs; each command imports its own layers,
# so e.g. `simulate` never loads the scheduler.
from .config import RunConfig, _prior_for_store, build_parser, resolve_config
from .dataset import ParseCache
from .errors import ConfigError, DataError, TranschedError


def _load_record(cfg: RunConfig, cache: ParseCache, path: str, label: str | None,
                 require_target: bool, order: int, n_params: int = 0):
    """Load a CSV's configured channels through the command's parse
    ``cache``, for the condition ``label`` the errors name; the target
    column is optional for online data unless the caller needs ground
    truth.  The record must have more samples than the FIR ``order``, and a
    training record must give more regression rows than its model's
    ``n_params``.  A channel whose sum of squares overflows is a DataError:
    every model fitted to it or scoring it would overflow too."""
    import numpy as np

    from .dataset import detrend_mean, load_csv, read_csv_header

    names = list(cfg.channels)
    if cfg.target not in read_csv_header(path):
        if require_target:
            raise DataError(f"{path}: ground-truth channel {cfg.target!r} missing")
        names.remove(cfg.target)
    ts = load_csv(path, names, cache=cache)
    if ts.n_samples <= order:
        raise DataError(
            f"{path}: {ts.n_samples} samples are too few for FIR order {order}; "
            f"need at least {order + 1}"
        )
    if ts.n_samples - order <= n_params:
        raise DataError(
            f"{path}: condition {label!r}: {ts.n_samples - order} regression rows "
            f"are too few for {n_params} FIR parameters at order {order}; "
            f"need at least {order + n_params + 1} samples"
        )
    with np.errstate(over="ignore"):  # reported below, not as a warning
        sum_sq = np.einsum("ij,ij->i", ts.data, ts.data)
    for name, s in zip(ts.names, sum_sq):
        if not np.isfinite(s):
            raise DataError(f"{path}: channel {name!r} has a sum of squares that overflows")
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
    # (file, schedule steps) per record, validation last
    records = [
        (f"train_{label}.csv", ((label, cfg.train_samples),)) for label in cfg.params
    ] + [("validation.csv", tuple(cfg.schedule))]
    # one independent (excitation, noise) seed pair per record
    state = np.random.SeedSequence(cfg.seed).generate_state(2 * len(records))
    csv_names = [name for name, _ in records]
    manifest_name = "simulate_manifest.json"
    cache = ParseCache(cfg.out)
    with _staged_outputs(cfg.out, [*csv_names, manifest_name], cache) as staged:
        for k, (name, steps) in enumerate(records):
            schedule = SwitchSchedule(steps=steps)
            noise = NoiseSpec(snr=cfg.snr, seed=int(state[2 * k + 1]), scale=cfg.snr_scale)
            ts = simulate(  # no name holds the excitation: it is freed on return
                systems, schedule,
                gen_excitation(schedule.total_samples, cfg.excitation_variance, int(state[2 * k])),
                noise=noise,
            )
            # only the validation record has a true_label column
            write_csv(ts, staged[name],
                      schedule.label_column() if name == "validation.csv" else None)
            cache.add_written(os.path.join(cfg.out, name), staged[name], ts, list(cfg.channels))
            del ts  # simulate the next record without this one
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
    n_pseudo = len(cfg.channels) - 1
    cache = ParseCache(cfg.out)
    records = {
        label: _load_record(cfg, cache, path, label, require_target=True, order=cfg.order,
                            n_params=n_pseudo * (cfg.order + 1))
        for label, path in cfg.train_data.items()
    }
    g, h = train_families(records, cfg.target, cfg.aux_output, cfg.order, cfg.c_lim)
    avg = fit_average(records.values(), g.input_channel_names, g.output_channel_name, cfg.order, cfg.c_lim)
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
    for label, ts in records.items():
        powers = ", ".join(f"{n}={v:.6g}" for n, v in signal_power(ts).items())
        print(f"  {label}: {powers}")
    return 0


def cmd_estimate(cfg: RunConfig) -> int:
    from .scheduler import schedule_estimate, write_sample_trace, write_window_trace
    from .transmissibility import load_store

    g, h, _ = load_store(cfg.store)
    prior = _prior_for_store(cfg, g)
    cache = ParseCache(cfg.out)
    online = _load_record(cfg, cache, cfg.data, None, require_target=False, order=g.order)
    trace = schedule_estimate(g, h, online, prior, cfg.window)
    names = ["trace_windows.csv", "trace_samples.csv"]
    with _staged_outputs(cfg.out, names, cache) as staged:
        write_window_trace(trace, staged[names[0]])
        write_sample_trace(trace, staged[names[1]])
    for name in names:
        print(f"wrote {os.path.join(cfg.out, name)}")
    print(f"chosen sequence: {' '.join(trace.chosen_labels())}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    from .evaluation import (
        compare_report,
        write_accuracy_csv,
        write_report_csv,
        write_summary_csv,
    )
    from .scheduler import schedule_estimate
    from .transmissibility import load_store

    g, h, avg = load_store(cfg.store)
    prior = _prior_for_store(cfg, g)
    if avg is None:
        raise DataError(f"{cfg.store} has no pooled-data average model; re-run train to add it")
    cache = ParseCache(cfg.out)
    records = {
        label: _load_record(cfg, cache, path, label, require_target=True, order=g.order)
        for label, path in cfg.evaluate_data.items()
    }
    runs = {
        label: (ts, schedule_estimate(g, h, ts, prior, cfg.window))
        for label, ts in records.items()
    }
    report = compare_report(g, avg, runs)
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
    print(f"accuracy: {report.accuracy:.3f}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "estimate": cmd_estimate,
    "evaluate": cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    # At shutdown the interpreter runs cyclic collections over every object
    # still alive (≈22 000 once numpy is loaded), even with the GC disabled;
    # frozen objects sit in the permanent generation, which they skip.  Only
    # at exit, and registered once however often main runs: an in-process
    # caller collects as before.  Every output file is closed before main
    # returns, so those collections have no open file to close.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:  # parse_args too: a flag's value goes through its setting's parse
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](resolve_config(args))
    except TranschedError as e:
        print(f"{e.prefix}: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
