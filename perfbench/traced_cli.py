"""Run one transched CLI command with the library's public functions timed.

    python3 perfbench/traced_cli.py SPANS_JSON RUN_ID COMMAND [ARGS...]

The command runs exactly as ``transched COMMAND [ARGS...]`` would, except
that every public function of the layer modules is replaced, at every
module binding that holds it (including the names ``cli`` and
``transmissibility`` import), by a wrapper that records a span: name,
start, end, parent span and run id.  Calls that happen thousands of times
per command (``HOT``) are kept as per-name counts and sums instead, and
their time is charged to the enclosing span so self times stay exact.
``src/`` is not edited.  Spans stay in memory and are written to
SPANS_JSON when the command ends; ``run.py`` derives the per-layer
metrics from them.

A function that no longer exists is simply not wrapped (its metrics come
out null); one that is no longer called records nothing (its counts are 0).
"""

import functools
import os
import sys
import time

# Only modules a fresh interpreter has already loaded are imported up front,
# so timing ``import transched.cli`` below measures what a user pays; the
# tracer's own imports come after it.

clock = time.perf_counter

LAYERS = ("simulator", "dataset", "regression", "transmissibility", "scheduler", "evaluation")

HOT = {
    "dataset.lag_matrix",
    "dataset.build_regressor",
    "scheduler.log_evidence",
    "scheduler.classify",
    "transmissibility.predict",
}

# Sizes summed per hot function, from its result.
HOT_SIZE = {
    "dataset.lag_matrix": lambda r: r.nbytes,
    "transmissibility.predict": lambda r: r.shape[0],
}


# Per-span details, from the bound arguments and the result.
SPAN_INFO = {
    "dataset.load_csv": lambda a, r: {"rows": r.n_samples, "bytes": os.path.getsize(a["path"])},
    "dataset.write_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "simulator.simulate": lambda a, r: {"samples": r.n_samples},
    "regression.ridge_fit": lambda a, r: {
        "flops": 2 * a["m"].phi.shape[0] * a["m"].phi.shape[1] ** 2,
        "capped": int(r.rho > 0.0),
    },
    "transmissibility.save_store": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "transmissibility.load_store": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "scheduler.schedule_estimate": lambda a, r: {
        "windows": len(r.windows),
        "ambiguous": sum(1 for w in r.windows if w.ambiguous),
        "skipped": len(r.skipped),
    },
}

# An info extractor that meets a changed API yields no info instead of failing the command.
INFO_ERRORS = (AttributeError, TypeError, ValueError, KeyError, IndexError, OSError)


class Tracer:
    """Span and counter store for one command; frames track child time."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, child_s, info]
        self.hot = {}  # name -> [calls, seconds, self seconds, size]
        # open frames, innermost last: [span id, seconds spent in wrapped children]
        self.frames = [[0, 0.0]]
        self.next_id = 1

    def _wrap_hot(self, name, fn):
        totals = self.hot.setdefault(name, [0, 0.0, 0.0, 0])
        size = HOT_SIZE.get(name)
        frames = self.frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [frames[-1][0], 0.0]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                frames.pop()
                frames[-1][1] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
            if size is not None:
                try:
                    totals[3] += size(result)
                except INFO_ERRORS:
                    pass
            return result

        return wrapper

    def _wrap_span(self, name, fn):
        import inspect

        info = SPAN_INFO.get(name)
        sig = inspect.signature(fn)
        frames = self.frames
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            frame = [span_id, 0.0]
            parent = frames[-1][0]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                frames[-1][1] += t1 - t0
                span = [span_id, parent, name, t0, t1, frame[1], None]
                spans.append(span)
            if info is not None:
                try:
                    span[6] = info(sig.bind(*args, **kwargs).arguments, result)
                except INFO_ERRORS:
                    pass
            return result

        return wrapper

    def install(self):
        """Wrap every public layer function at every transched binding; return their names."""
        import importlib
        import inspect

        replace = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"transched.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrap = self._wrap_hot if name in HOT else self._wrap_span
                replace[id(obj)] = (obj, wrap(name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "transched" and not mod_name.startswith("transched."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return sorted(f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}" for fn, _ in replace.values())


def main():
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = clock()
    import transched.cli as cli

    import_s = clock() - t0
    tracer = Tracer()
    wrapped = tracer.install()
    t0 = clock()
    try:
        rc = cli.main(argv)
    except SystemExit as e:  # argparse exits on bad flags
        rc = e.code
    main_s = clock() - t0
    doc = {
        "run_id": run_id,
        "command": argv[0] if argv else None,
        "rc": rc,
        "import_s": import_s,
        "main_s": main_s,
        "wrapped": wrapped,
        "spans": tracer.spans,
        "hot": tracer.hot,
    }
    import json

    with open(spans_path, "w") as f:
        json.dump(doc, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
