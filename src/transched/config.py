"""Run configuration: defaults, config file and flags resolved into a RunConfig.

Settings come from built-in defaults (the two-condition quarter-car
scenario), overridden by an INI-style config file, overridden by flags.
Every command validates its full configuration before writing anything.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field, fields
from functools import partial

# The simulator and scheduler checks import their module for their command only.
from . import __version__
from .dataset import DEFAULT_C_LIM, _check_c_lim, _check_label
from .errors import ConfigError

# Stock two-condition scenario: a softly and a stiffly sprung quarter car.
STOCK_CONDITIONS = {
    "C1": {"m_s": 300.0, "m_u": 40.0, "k_s": 2.0e4, "k_r": 1.8e5, "c_s": 1.5e3},
    "C2": {"m_s": 300.0, "m_u": 40.0, "k_s": 4.0e4, "k_r": 2.0e5, "c_s": 2.5e3},
}

# The keys of a [params.<label>] section, the QuarterCarParams fields.
PARAM_KEYS = ("m_s", "m_u", "k_s", "k_r", "c_s")

# The roles a [channels] key can take: one channel is the target, the others
# are pseudo-inputs.
PSEUDO_INPUT = "pseudo_input"
TARGET_OUTPUT = "target_output"
DEFAULT_CHANNELS = {"y_I1_a": PSEUDO_INPUT, "y_I2": PSEUDO_INPUT, "y_O": TARGET_OUTPUT}


def _typed(kind):
    """Parser of one INI value of a plain type: int, float, bool or str."""

    def parse(where: str, raw: str):
        try:
            if kind is bool:
                return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
            return kind(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{where}: expected {kind.__name__}, got {raw!r}") from None

    return parse


def _items(where: str, raw: str, sep: str, form: str):
    """Yield (label, value) for each 'label<sep>value' item of a comma-separated
    list, both stripped; blank items are skipped."""
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if sep not in item:
            raise ConfigError(f"{where}: expected {form}, got {item!r}")
        label, value = item.split(sep, 1)
        yield label.strip(), value.strip()


def _parse_path(where: str, raw: str) -> str:
    """A file or directory path.  An empty one is a ConfigError: it would
    otherwise read as unset, or as the current directory."""
    if not raw:
        raise ConfigError(f"{where}: empty path")
    return raw


def _parse_pairs(where: str, raw: str) -> dict[str, str]:
    """Parse 'label=path, label=path' lists."""
    out: dict[str, str] = {}
    for label, value in _items(where, raw, "=", "label=value"):
        _check_label(where, label, ConfigError)
        if label in out:
            raise ConfigError(f"{where}: duplicate label {label!r}")
        out[label] = _parse_path(f"{where} {label}", value)
    if not out:
        raise ConfigError(f"{where}: empty list")
    return out


def _parse_schedule(where: str, raw: str) -> list[tuple[str, int]]:
    items = _items(where, raw, ":", "label:samples")
    steps = [(label, _typed(int)(where, n)) for label, n in items]
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
    argparse ``dest``, through the setting's ``parse``.
    """

    command: str
    out: str = _setting("out", "common", parse=_parse_path)
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
    store: str | None = _setting(None, "train", "estimate", "evaluate", parse=_parse_path)
    # estimate / evaluate
    data: str | None = _setting(None, "estimate", parse=_parse_path)
    window: int = _setting(20, "estimate", "evaluate")
    priors: str | list = _setting("uniform", "estimate", "evaluate", parse=_parse_priors)
    evaluate_data: dict = _setting({}, "evaluate", key="data", parse=_parse_pairs)

    @property
    def target(self) -> str:
        """The name of the one ``target_output`` channel."""
        return next(n for n, r in self.channels.items() if r == TARGET_OUTPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="transched", description=(
        "Scheduled FIR transmissibility estimation for switching linear systems."))
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    simulate, train, estimate, evaluate = every = [sub.add_parser(n, help=h) for n, h in (
        ("simulate", "generate quarter-car training and switching validation CSVs"),
        ("train", "fit the primary/auxiliary families and write the model store"),
        ("estimate", "classify windows and estimate the target from online data"),
        ("evaluate", "compare the estimators and score the classifier on labeled records"),
    )]
    parse = {"config": _parse_path, **{f.name: f.metadata.get("parse") for f in fields(RunConfig)}}
    # each flag once: the commands that read its setting, and its argparse options
    for flag, commands, options in (
        ("--config", every, dict(help="INI config file; flags override its values")),
        ("--seed", [simulate], dict(help="root RNG seed")),
        ("--order", [simulate, train], dict(help="FIR model order n")),
        ("--clim", [train], dict(dest="c_lim", metavar="CLIM", help="ridge condition-number cap")),
        ("--window", [estimate, evaluate], dict(help="online classification window (samples)")),
        ("--snr", [simulate], dict(help="measurement SNR")),
        ("--snr-db", [simulate], dict(action="store_const", const="db", dest="snr_scale", help=(
            "interpret --snr in decibels instead of a linear power ratio"))),
        ("--out", every, dict(help="output directory")),
        ("--store", [train, estimate, evaluate], dict(help="model store path")),
        ("--data", [estimate], dict(help="online CSV path")),
    ):
        if "action" not in options:  # a value is parsed as its INI key is
            options["type"] = partial(parse[options.get("dest", flag[2:])], flag)
        for command in commands:
            command.add_argument(flag, **options)
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
        _check_label(f"[params.{label}]", label, ConfigError)
        params = {}
        for key in PARAM_KEYS:
            if key not in values:
                raise ConfigError(f"[params.{label}] missing parameter {key}")
            params[key] = _typed(float)(f"[params.{label}] {key}", str(values[key]))
        # the QuarterCarParams check, without importing the simulator here
        for key, v in params.items():
            if not 0 < v < math.inf:
                raise ConfigError(
                    f"quarter-car parameter {key} must be positive and finite, got {v}"
                )
        cfg.params[label] = params
    for f in fields(RunConfig):  # a flag not given is None: the file's value stays
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)

    # path defaults derived from the output directory
    cfg.store = cfg.store or os.path.join(cfg.out, "store.json")
    cfg.train_data = cfg.train_data or {
        label: os.path.join(cfg.out, f"train_{label}.csv") for label in cfg.params
    }
    cfg.data = cfg.data or os.path.join(cfg.out, "validation.csv")
    cfg.evaluate_data = cfg.evaluate_data or {"VAL": cfg.data}

    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """Config checks every command makes before it reads any file."""
    if cfg.order < 0:
        raise ConfigError(f"order must be non-negative, got {cfg.order}")
    _check_c_lim(cfg.c_lim)
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if not 0 < cfg.sample_time < math.inf:
        raise ConfigError(f"sample_time must be positive and finite, got {cfg.sample_time}")
    for name in cfg.channels:  # each is a header cell of a CSV the program writes
        _check_label("[channels]", name, ConfigError, "channel name")
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
        raise ConfigError(f"aux_output {cfg.aux_output!r} is not a pseudo_input channel {pseudo}")
    if cfg.command == "simulate":
        from .simulator import CHANNEL_NAMES, NoiseSpec, SwitchSchedule

        if cfg.train_samples <= cfg.order:
            raise ConfigError(
                f"train_samples {cfg.train_samples} must exceed the FIR order {cfg.order}"
            )
        if not 0 < cfg.excitation_variance < math.inf:
            raise ConfigError(
                f"excitation_variance must be positive and finite, got {cfg.excitation_variance}"
            )
        NoiseSpec(snr=cfg.snr, seed=cfg.seed, scale=cfg.snr_scale)
        for label, _ in cfg.schedule:  # before SwitchSchedule checks the durations
            if label not in cfg.params:
                raise ConfigError(f"schedule references unknown condition {label!r}")
        total = SwitchSchedule(steps=tuple(cfg.schedule)).total_samples
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


def _prior_for_store(cfg: RunConfig, g):
    """Check the settings that depend on the store's primary family ``g``,
    before any CSV is read: the window must exceed its FIR order and explicit
    priors need one weight per condition.  Return the prior."""
    from .scheduler import Prior

    if cfg.window <= g.order:
        raise ConfigError(f"window {cfg.window} must exceed the stored FIR order {g.order}")
    if cfg.priors == "uniform":
        return Prior.uniform(len(g))
    if len(cfg.priors) != len(g):
        raise ConfigError(
            f"priors has {len(cfg.priors)} weights but the store holds {len(g)} conditions"
        )
    return Prior.from_weights(cfg.priors)
