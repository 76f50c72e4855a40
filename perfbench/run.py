#!/usr/bin/env python3
"""Benchmark of the transched CLI pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stock --seed 1 --seconds 40 --trace 0

A run writes the workload's INI config from ``--seed`` and then repeats the
chain ``simulate -> train -> estimate -> evaluate`` for about ``--seconds``
seconds.  Every command is a fresh interpreter that runs the checkout's
``src/`` with BLAS pinned to one thread, and the commands of a chain run one
after another: a closed loop with one client.  The outputs of every chain
are checked, and must be byte-identical across chains.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced chains with chains run through
``traced_cli.py``, which times the calls into each library layer, and
reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A table, the output
checks and the run record come before it, and the full result is saved to
``perfbench/results/``.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
RESULTS = os.path.join(HERE, "results")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

COMMANDS = ("simulate", "train", "estimate", "evaluate")
# What the ``transched`` console script runs.
ENTRY = "import sys; from transched.cli import main; sys.exit(main())"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_CHAINS = 3  # untraced chains per --trace 0 run: a median and two byte-identity checks
RUN_LIMIT_S = 170.0  # a run must end within 180 s; no chain starts that could overrun this

# Host-speed correction.  On a shared host, neighbours slow each vCPU of this
# machine by up to 1.8x for stretches of seconds to minutes, independently per
# vCPU, and CPU time inflates with wall time, so medians of raw wall times spread
# 25-45 % between runs.  Before every command a fixed Python loop is timed on
# each CPU this process may use, and the process (so also the command it
# starts) is pinned to the fastest.  While the command runs, a thread of this
# process on the same CPU times a short run of the loop every PROBE_EVERY_S
# (taking about 1 % of the CPU from the command).  The command's wall time is
# scaled by PROBE_NOMINAL_S over the median of those probes: seconds at the host
# speed where the short loop takes PROBE_NOMINAL_S (its fastest time on the
# 2-vCPU Xeon host the benchmark was defined on).  Raw wall times are kept in
# the result file.
PICK_ITERATIONS = 150_000
PROBE_ITERATIONS = 10_000
PROBE_NOMINAL_S = 0.00053
PROBE_EVERY_S = 0.05

STOCK_CONDITIONS = {
    "C1": {"m_s": 300.0, "m_u": 40.0, "k_s": 2.0e4, "k_r": 1.8e5, "c_s": 1.5e3},
    "C2": {"m_s": 300.0, "m_u": 40.0, "k_s": 4.0e4, "k_r": 2.0e5, "c_s": 2.5e3},
}
# The stock validation record switches once, halfway; the README prints this.
STOCK_SEQUENCE = "C1 C1 C1 C1 C2 C2 C2 C2"


@dataclass(frozen=True)
class Workload:
    """Scenario sizes; the reason for each workload is in BENCHMARK.json."""

    extra_conditions: int  # seeded quarter-car draws added to stock C1 and C2
    order: int
    train_samples: int  # per condition
    validation_samples: int
    switch_every: int  # validation samples per condition before switching
    window: int
    expect_sequence: str | None = None


WORKLOADS = {
    "stock": Workload(0, 10, 1000, 160, 80, 20, expect_sequence=STOCK_SEQUENCE),
    "fit-heavy": Workload(2, 30, 5_000, 20_000, 2_000, 200),
    "online-long": Workload(2, 10, 2_000, 40_000, 1_000, 20),
    # seconds per run; for the harness self-test, not a benchmark workload
    "tiny": Workload(1, 4, 300, 240, 40, 20),
}


def conditions(wl: Workload, seed: int) -> dict[str, dict[str, float]]:
    rng = random.Random(seed)
    conds = dict(STOCK_CONDITIONS)
    for k in range(wl.extra_conditions):
        conds[f"C{3 + k}"] = {
            "m_s": 300.0,
            "m_u": 40.0,
            "k_s": rng.uniform(1.5e4, 5.0e4),
            "k_r": rng.uniform(1.6e5, 2.2e5),
            "c_s": rng.uniform(1.0e3, 3.0e3),
        }
    return conds


def write_config(wl: Workload, seed: int, path: str) -> list[str]:
    """Write the INI config the program receives; return the condition labels."""
    conds = conditions(wl, seed)
    labels = list(conds)
    n_steps = wl.validation_samples // wl.switch_every
    schedule = ", ".join(f"{labels[i % len(labels)]}:{wl.switch_every}" for i in range(n_steps))
    lines = [
        "[common]",
        f"order = {wl.order}",
        f"seed = {seed}",
        "out = out",
        "",
        "[simulate]",
        f"train_samples = {wl.train_samples}",
        f"schedule = {schedule}",
        "",
    ]
    for label, params in conds.items():
        lines += [f"[params.{label}]"] + [f"{k} = {v!r}" for k, v in params.items()] + [""]
    lines += ["[estimate]", f"window = {wl.window}", ""]
    with open(path, "w") as f:
        f.write("\n".join(lines))
    return labels


def expected_windows(wl: Workload) -> tuple[int, int]:
    """(windows cut, trailing windows too short to classify)."""
    cut = -(-wl.validation_samples // wl.window)
    tail = wl.validation_samples % wl.window
    return cut, int(0 < tail <= wl.order)


# ---------------------------------------------------------------- children


def reference_loop(iterations: int) -> float:
    """Seconds a fixed pure-Python loop takes now: a probe of the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i
    return time.perf_counter() - t0


def pin_fastest_cpu(cpus: list[int]) -> None:
    """Pin this thread, and so the threads and commands it starts, to the CPU
    that runs the reference loop fastest now."""
    best_s, best_cpu = math.inf, cpus[0]
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        ref_s = reference_loop(PICK_ITERATIONS)
        if ref_s < best_s:
            best_s, best_cpu = ref_s, cpu
    os.sched_setaffinity(0, {best_cpu})


class SpeedProbe(threading.Thread):
    """Times the short reference loop before, every PROBE_EVERY_S during, and
    after a command, on the CPU it was started from."""

    def __init__(self):
        super().__init__(daemon=True)
        self.done = threading.Event()
        self.samples = [reference_loop(PROBE_ITERATIONS)]

    def run(self) -> None:
        while not self.done.wait(PROBE_EVERY_S):
            self.samples.append(reference_loop(PROBE_ITERATIONS))

    def speed(self) -> float:
        """Stop probing; return the factor that converts wall time to nominal seconds."""
        self.done.set()
        self.join()
        self.samples.append(reference_loop(PROBE_ITERATIONS))
        return PROBE_NOMINAL_S / statistics.median(self.samples)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=SRC, **BLAS_THREADS)


def run_child(argv: list[str], cwd: str, log_path: str, timeout_s: float):
    """Run one command to completion; return (wall s, exit code, peak RSS MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout_s, 0.1), proc.kill)
        killer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            if status is None:  # interrupted before the child ended: do not leave it running
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


PREFLIGHT = """
import json, sys
import transched.cli
import numpy
try:
    b = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{b.get('name')} {b.get('version')}"
except (TypeError, KeyError):
    blas = "unknown"
print(json.dumps({"transched": transched.cli.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "blas": blas}))
"""


def preflight(tmp: str) -> dict:
    """Import the checkout's transched once (this also writes its bytecode) and
    read the versions for the run record."""
    log = os.path.join(tmp, "preflight.log")
    _, rc, _ = run_child([sys.executable, "-c", PREFLIGHT], tmp, log, 60.0)
    with open(log) as f:
        text = f.read()
    if rc != 0:
        raise SystemExit(f"perfbench: cannot import transched from {SRC}:\n{text}")
    info = json.loads(text.strip().splitlines()[-1])
    if not os.path.abspath(info["transched"]).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported {info['transched']}, not the checkout's {SRC}")
    return info


# ------------------------------------------------------------------ chains


@dataclass
class Chain:
    traced: bool
    raw: dict[str, float] = field(default_factory=dict)  # wall seconds
    wall: dict[str, float] = field(default_factory=dict)  # host-speed-corrected seconds
    rss_mb: dict[str, float] = field(default_factory=dict)
    failed_commands: int = 0
    hashes: dict[str, str] = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)  # one spans document per command

    @property
    def complete(self) -> bool:
        return self.failed_commands == 0

    @property
    def total_s(self) -> float:
        return sum(self.wall.values())


def artifact_hashes(out: str) -> dict[str, str]:
    hashes = {}
    for dirpath, _, files in os.walk(out):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                hashes[os.path.relpath(path, out)] = hashlib.sha256(f.read()).hexdigest()
    return hashes


def run_chain(ctx: "Run", idx: int, traced: bool) -> Chain:
    chain = Chain(traced=traced)
    cwd = os.path.join(ctx.tmp, f"chain{idx}")
    os.makedirs(cwd)
    for n_done, cmd in enumerate(COMMANDS):
        spans = os.path.join(ctx.tmp, f"spans{idx}-{cmd}.json")
        if traced:
            argv = [sys.executable, TRACED_CLI, spans, f"{idx}-{cmd}", cmd, "--config", ctx.config]
        else:
            argv = [sys.executable, "-c", ENTRY, cmd, "--config", ctx.config]
        log = os.path.join(cwd, f"{cmd}.log")
        pin_fastest_cpu(ctx.cpus)
        probe = SpeedProbe()
        probe.start()
        try:
            wall, rc, rss = run_child(argv, cwd, log, ctx.deadline - time.perf_counter())
        finally:
            speed = probe.speed()
        ctx.logs[cmd] = log
        if rc != 0:
            with open(log, errors="replace") as f:
                ctx.notes.append(f"chain {idx} {cmd} exited {rc}: {f.read()[-400:]}")
            chain.failed_commands = len(COMMANDS) - n_done  # later commands lack their inputs
            break
        chain.raw[cmd], chain.wall[cmd], chain.rss_mb[cmd] = wall, wall * speed, rss
        if traced:
            with open(spans) as f:
                chain.traces.append(dict(json.load(f), speed=speed))
    chain.hashes = artifact_hashes(os.path.join(cwd, "out"))
    return chain


# ------------------------------------------------------------------ checks


def read_csv_rows(path: str) -> list[list[str]]:
    """Rows of a transched CSV, without its ``# format`` line and header."""
    with open(path, newline="") as f:
        rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
    return rows[1:]


def check_outputs(wl: Workload, labels: list[str], out: str, estimate_log: str) -> tuple[list, dict]:
    """Check one chain's artifacts; return ([(check, ok, detail)], accuracy and FIT)."""
    checks = []
    expected = ["simulate_manifest.json", "validation.csv", "store.json", "trace_windows.csv",
                "trace_samples.csv", "report.csv", "report_summary.csv", "report_accuracy.csv"]
    expected += [f"train_{label}.csv" for label in labels]
    missing = [p for p in expected if not os.path.exists(os.path.join(out, p))]
    checks.append(("artifacts exist", not missing, f"missing {missing}" if missing else ""))
    if missing:
        return checks, {}

    if wl.expect_sequence is not None:
        with open(estimate_log) as f:
            printed = [ln.strip() for ln in f if ln.startswith("chosen sequence:")]
        want = f"chosen sequence: {wl.expect_sequence}"
        checks.append(("chosen sequence", printed == [want], f"printed {printed}"))

    windows = read_csv_rows(os.path.join(out, "trace_windows.csv"))
    cut, skipped = expected_windows(wl)
    checks.append(("window count", len(windows) == cut - skipped,
                   f"{len(windows)} windows, expected {cut} - {skipped} skipped"))

    samples = read_csv_rows(os.path.join(out, "trace_samples.csv"))
    covered = wl.validation_samples - (wl.validation_samples % wl.window if skipped else 0)
    bad = [r[0] for r in samples[wl.order:covered] if not r[2] or not math.isfinite(float(r[2]))]
    checks.append(("finite estimates", len(samples) == wl.validation_samples and not bad,
                   f"{len(samples)} samples, non-finite at {bad[:5]}"))

    with open(os.path.join(out, "validation.csv"), newline="") as f:
        reader = csv.reader(f)
        col = next(reader).index("true_label")
        truth = [row[col] for row in reader if row]
    hits = 0
    for row in windows:
        start, end, chosen = int(row[1]), int(row[2]), row[3]
        majority = Counter(truth[start - 1:end]).most_common(1)[0][0]
        hits += chosen == majority
    summary = {r[0]: float(r[1]) for r in read_csv_rows(os.path.join(out, "report_summary.csv"))}
    checks.append(("scheduled FIT reported", "scheduled" in summary, f"estimators {list(summary)}"))
    if not windows or "scheduled" not in summary:
        return checks, {}
    return checks, {"window_accuracy": hits / len(windows), "fit_scheduled_pct": summary["scheduled"]}


# ----------------------------------------------------------------- traces


class LayerTotals:
    """Per-function totals over the traced commands of one chain, in seconds
    corrected for host speed with the factor of the command they ran in."""

    def __init__(self, docs: list[dict]):
        self.wrapped = set()
        self.seconds = Counter()
        self.self_s = Counter()
        self.calls = Counter()
        self.info = Counter()  # (function, key) -> sum
        self.import_s = statistics.median(d["import_s"] * d["speed"] for d in docs)
        self.cli_self = {}
        self.top_items = {}
        for doc in docs:
            k = doc["speed"]
            self.wrapped.update(doc["wrapped"])
            top_level = 0.0
            items = Counter()
            for _, parent, name, t0, t1, child_s, info in doc["spans"]:
                self.seconds[name] += (t1 - t0) * k
                self.self_s[name] += (t1 - t0 - child_s) * k
                self.calls[name] += 1
                items[name] += (t1 - t0 - child_s) * k
                for key, value in (info or {}).items():
                    self.info[name, key] += value
                if parent == 0:
                    top_level += t1 - t0
            for name, (calls, seconds, self_s, size) in doc["hot"].items():
                self.seconds[name] += seconds * k
                self.self_s[name] += self_s * k
                self.calls[name] += calls
                self.info[name, "size"] += size
                items[name] += self_s * k
            cli_self = (doc["main_s"] - top_level) * k
            self.cli_self[doc["command"]] = cli_self
            items["cli.import"] = doc["import_s"] * k
            items["cli.self"] = cli_self
            self.top_items[doc["command"]] = items.most_common(4)

    def _get(self, table, *names):
        if not all(n in self.wrapped for n in names):
            return None  # the function is gone from the program
        return sum(table[n] for n in names)

    def time(self, *names):
        return self._get(self.seconds, *names)

    def self_time(self, name):
        return self._get(self.self_s, name)

    def count(self, name):
        return self._get(self.calls, name)

    def sized(self, name, key):
        if name not in self.wrapped:
            return None
        return self.info[name, key]

    def metrics(self) -> dict:
        t, s, n, z = self.time, self.self_time, self.count, self.sized
        out = {"cli.import_s": self.import_s}
        for cmd in COMMANDS:
            out[f"cli.{cmd}.self_s"] = self.cli_self.get(cmd)
        out.update({
            "simulator.c2d_zoh_s": t("simulator.c2d_zoh"),
            "simulator.simulate_s": t("simulator.simulate"),
            "simulator.add_noise_s": t("simulator.add_noise"),
            "simulator.samples": z("simulator.simulate", "samples"),
            "dataset.write_csv_s": t("dataset.write_csv"),
            "dataset.write_csv_bytes": z("dataset.write_csv", "bytes"),
            "dataset.load_csv_s": t("dataset.load_csv"),
            "dataset.load_csv_rows": z("dataset.load_csv", "rows"),
            "dataset.load_csv_bytes": z("dataset.load_csv", "bytes"),
            "dataset.lag_matrix_s": t("dataset.lag_matrix"),
            "dataset.lag_matrix_calls": n("dataset.lag_matrix"),
            "dataset.lag_matrix_bytes": z("dataset.lag_matrix", "size"),
            "regression.ridge_fit_calls": n("regression.ridge_fit"),
            "regression.ridge_fit_s": t("regression.ridge_fit"),
            "regression.ridge_fit.self_s": s("regression.ridge_fit"),
            "regression.gram_flops": z("regression.ridge_fit", "flops"),
            "regression.eigen_extremes_s": t("regression.eigen_extremes"),
            "regression.ridge_solve_s": t("regression.ridge_solve"),
            "regression.estimate_variance_s": t("regression.estimate_variance"),
            "regression.capped_fits": z("regression.ridge_fit", "capped"),
            "transmissibility.train_families_s": t("transmissibility.train_families"),
            "transmissibility.fit_average_s": t("transmissibility.fit_average"),
            "transmissibility.predict_s": t("transmissibility.predict"),
            "transmissibility.predict_calls": n("transmissibility.predict"),
            "transmissibility.predict_rows": z("transmissibility.predict", "size"),
            "transmissibility.save_store_s": t("transmissibility.save_store"),
            "transmissibility.load_store_s": t("transmissibility.load_store"),
            "transmissibility.store_bytes": z("transmissibility.save_store", "bytes"),
            "scheduler.schedule_estimate_s": t("scheduler.schedule_estimate"),
            "scheduler.schedule_estimate.self_s": s("scheduler.schedule_estimate"),
            "scheduler.classify_calls": n("scheduler.classify"),
            "scheduler.classify_s": t("scheduler.classify"),
            "scheduler.log_evidence_calls": n("scheduler.log_evidence"),
            "scheduler.log_evidence_s": t("scheduler.log_evidence"),
            "scheduler.windows": z("scheduler.schedule_estimate", "windows"),
            "scheduler.windows_ambiguous": z("scheduler.schedule_estimate", "ambiguous"),
            "scheduler.windows_skipped": z("scheduler.schedule_estimate", "skipped"),
            "scheduler.write_window_trace_s": t("scheduler.write_window_trace"),
            "scheduler.write_sample_trace_s": t("scheduler.write_sample_trace"),
            "evaluation.compare_report_s": t("evaluation.compare_report"),
            "evaluation.compare_report.self_s": s("evaluation.compare_report"),
            "evaluation.write_reports_s": t("evaluation.write_report_csv",
                                            "evaluation.write_summary_csv",
                                            "evaluation.write_accuracy_csv"),
        })
        return out


# -------------------------------------------------------------------- run


def summarize(values: list[float]) -> dict:
    """Median with the sample count, and the highest percentile that has at
    least ten samples above it (none below eleven samples)."""
    xs = sorted(values)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "min": xs[0], "max": xs[-1]}
    if n > 10:
        out[f"p{100 * (n - 10) // n}"] = xs[n - 11]
    return out


def median_or_none(values: list):
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


@dataclass
class Run:
    name: str
    wl: Workload
    seed: int
    seconds: int
    trace: bool
    tmp: str
    # CPUs the commands may be pinned to; each costs one loop per command to compare
    cpus: list = field(default_factory=lambda: sorted(os.sched_getaffinity(0))[:4])
    config: str = ""
    deadline: float = 0.0
    logs: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    wl = WORKLOADS[name]
    allowed = os.sched_getaffinity(0)
    os.makedirs(SCRATCH, exist_ok=True)
    ctx = Run(name, wl, seed, seconds, trace, tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    try:
        ctx.deadline = time.perf_counter() + RUN_LIMIT_S
        versions = preflight(ctx.tmp)
        ctx.config = os.path.join(ctx.tmp, "workload.ini")
        labels = write_config(wl, seed, ctx.config)
        return measure(ctx, labels, versions, spec)
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(ctx.tmp, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


def run_chains(ctx: Run, labels: list[str]) -> tuple[list[Chain], list, dict]:
    """Repeat the chain for about ctx.seconds; check the first chain's outputs in
    full and every later chain's for byte identity with it."""
    chains: list[Chain] = []
    checks: list[tuple[str, bool, str]] = []
    quality: dict = {}
    start = time.perf_counter()
    while True:
        traced = ctx.trace and sum(c.traced for c in chains) < sum(not c.traced for c in chains)
        chain = run_chain(ctx, len(chains), traced)
        chains.append(chain)
        out = os.path.join(ctx.tmp, f"chain{len(chains) - 1}", "out")
        if len(chains) == 1:
            checks, quality = check_outputs(ctx.wl, labels, out, ctx.logs.get("estimate", ""))
        else:
            diff = sorted(k for k in chain.hashes.keys() | chains[0].hashes.keys()
                          if chain.hashes.get(k) != chains[0].hashes.get(k))
            checks.append((f"chain {len(chains) - 1} byte-identical", not diff, f"differs: {diff}"))
        shutil.rmtree(os.path.dirname(out))
        now = time.perf_counter()
        per_chain = (now - start) / len(chains)
        if now + 1.5 * per_chain > ctx.deadline:
            break
        enough = any(c.traced for c in chains) if ctx.trace else len(chains) >= MIN_CHAINS
        if enough and now - start + per_chain > ctx.seconds:
            break
    return chains, checks, quality


def run_record(ctx: Run, labels: list[str], versions: dict, chains: list[Chain]) -> dict:
    cut, skipped = expected_windows(ctx.wl)
    return {
        "workload": ctx.name,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "blas": versions["blas"],
        "blas_threads": BLAS_THREADS,
        "loop": "closed, one client; the four commands of a chain run one after another",
        "chains": {"untraced": sum(not c.traced for c in chains), "traced": sum(c.traced for c in chains)},
        "sizes": {
            "conditions": len(labels),
            "order": ctx.wl.order,
            "train_samples_per_condition": ctx.wl.train_samples,
            "validation_samples": ctx.wl.validation_samples,
            "params_primary": 2 * (ctx.wl.order + 1),
            "params_auxiliary": ctx.wl.order + 1,
            "window": ctx.wl.window,
            "windows": cut - skipped,
        },
    }


def measure(ctx: Run, labels: list[str], versions: dict, spec: dict) -> dict:
    chains, checks, quality = run_chains(ctx, labels)
    attempted = len(chains) * len(COMMANDS) + len(checks)
    failed = sum(c.failed_commands for c in chains) + sum(not ok for _, ok, _ in checks)
    plain = [c for c in chains if c.complete and not c.traced]
    traced = [c for c in chains if c.complete and c.traced]
    stats: dict = {}
    raw_stats: dict = {}
    metrics: dict = {}
    top_items: dict = {}
    if plain and quality:
        stats = {
            "setup_s": summarize([c.wall["simulate"] for c in plain]),
            "train_s": summarize([c.wall["train"] for c in plain]),
            "estimate_s": summarize([c.wall["estimate"] for c in plain]),
            "evaluate_s": summarize([c.wall["evaluate"] for c in plain]),
            "peak_rss_mb": summarize([max(c.rss_mb.values()) for c in plain]),
        }
        raw_stats = {f"raw_{cmd}_s": summarize([c.raw[cmd] for c in plain]) for cmd in COMMANDS}
        if not ctx.trace:
            metrics = {k: v["median"] for k, v in stats.items()}
            metrics["pipeline_s"] = metrics["train_s"] + metrics["estimate_s"] + metrics["evaluate_s"]
            metrics.update(quality)
            metrics["ops_ok_frac"] = 1.0 - failed / attempted
    if ctx.trace and plain and traced:
        totals = [LayerTotals(c.traces) for c in traced]
        per_chain = [t.metrics() for t in totals]
        metrics = {k: median_or_none([m[k] for m in per_chain]) for k in per_chain[0]}
        untraced_s = statistics.median(c.total_s for c in plain)
        metrics["trace.overhead_frac"] = statistics.median(c.total_s for c in traced) / untraced_s - 1.0
        top_items = totals[0].top_items

    wanted = spec["per_layer"] if ctx.trace else spec["end_to_end"]
    return {
        "record": run_record(ctx, labels, versions, chains),
        "checks": [{"check": c, "ok": ok, "detail": d} for c, ok, d in checks],
        "notes": ctx.notes,
        "stats": stats,
        "raw_wall": raw_stats,
        "top_items": top_items,
        "result": {
            "correct": failed == 0 and bool(metrics),
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in wanted}
            if metrics else {},
        },
    }


def print_report(res: dict, spec: dict, moves: dict) -> None:
    rec = res["record"]
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  chains {rec['chains']}")
    print("   " + json.dumps({k: v for k, v in rec.items() if k not in ("workload", "seed", "trace", "chains")}))
    for c in res["checks"]:
        if not c["ok"]:
            print(f"   check FAILED: {c['check']}: {c['detail']}")
    n_ok = sum(c["ok"] for c in res["checks"])
    print(f"   output checks: {n_ok}/{len(res['checks'])} passed")
    for note in res["notes"]:
        print(f"   note: {note}")
    metrics = res["result"]["metrics"]
    if rec["trace"]:
        for cmd, items in res["top_items"].items():
            print(f"   largest self times, {cmd}: " + ", ".join(f"{n} {s:.4f}s" for n, s in items))
        for name, m in metrics.items():
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"   {name:38s} {value:>14s} {m['unit']:6s} moves: {moves.get(name, '')}")
        return
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for name, m in metrics.items():
        st = res["stats"].get(name)
        extra = ""
        if st:
            hi = [f"{k} {v:.6g}" for k, v in st.items() if k.startswith("p")]
            extra = f"n={st['n']} min {st['min']:.6g} max {st['max']:.6g} " + " ".join(hi)
        print(f"   {name:20s} {m['value']:>14.6g} {m['unit']:6s} {better[name]:6s} {extra}")
    raw = ", ".join(f"{k[4:-2]} {v['median']:.4g}" for k, v in res["raw_wall"].items())
    print(f"   uncorrected wall-time medians (s): {raw}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "transched", "cli.py")):
        print(f"perfbench: no transched sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "metric_map.json")) as f:
        moves = json.load(f)["per_layer"]
    # a run stopped with SIGTERM unwinds, so its command is killed and its scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump(res, f, indent=1)
        print_report(res, spec, moves)
        results.append(res["result"])
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
