"""How `resolve_config` layers defaults, the INI file and flags, per command,
and SNR settings that used to escape as tracebacks or wrong output."""

import argparse
import math
import os
from dataclasses import fields

import pytest

from transched.cli import main
from transched.config import STOCK_CONDITIONS, RunConfig, build_parser, resolve_config

COMMANDS = ("simulate", "train", "estimate", "evaluate")

PARAMS = "m_s = 300\nm_u = 40\nk_s = 2e4\nk_r = 1.8e5\nc_s = 1.5e3\n"


def _resolve(tmp_path, argv, ini=None):
    if ini is not None:
        path = tmp_path / "run.ini"
        path.write_text(ini)
        argv = [*argv, "--config", str(path)]
    return resolve_config(build_parser().parse_args(argv))


# ----------------------------------------------------------- every INI key


FULL_INI = f"""
[common]
out = o1
order = 7
c_lim = 5e5
seed = 11
sample_time = 0.05
detrend = on

[channels]
a = pseudo_input
b = pseudo_input
t = target_output

[decomposition]
aux_output = a

[simulate]
train_samples = 300
excitation_variance = 0.5
snr = 30
snr_scale = db
schedule = X:10, Y:20

[params.X]
{PARAMS}
[params.Y]
{PARAMS.replace("k_s = 2e4", "k_s = 4e4")}
[train]
data = X=x.csv, Y=y.csv
store = s/train.json

[estimate]
data = online.csv
window = 40
priors = 1, 3

[evaluate]
data = V1=v1.csv, V2=v2.csv
"""

FULL_EXPECTED = {
    "out": "o1",
    "order": 7,
    "c_lim": 5e5,
    "seed": 11,
    "sample_time": 0.05,
    "detrend": True,
    "channels": {"a": "pseudo_input", "b": "pseudo_input", "t": "target_output"},
    "aux_output": "a",
    "params": {
        "X": {"m_s": 300.0, "m_u": 40.0, "k_s": 2e4, "k_r": 1.8e5, "c_s": 1.5e3},
        "Y": {"m_s": 300.0, "m_u": 40.0, "k_s": 4e4, "k_r": 1.8e5, "c_s": 1.5e3},
    },
    "train_samples": 300,
    "excitation_variance": 0.5,
    "snr": 30.0,
    "snr_scale": "db",
    "schedule": [("X", 10), ("Y", 20)],
    "train_data": {"X": "x.csv", "Y": "y.csv"},
    "store": "s/train.json",
    "data": "online.csv",
    "window": 40,
    "priors": [1.0, 3.0],
    "evaluate_data": {"V1": "v1.csv", "V2": "v2.csv"},
}


def test_every_ini_key_lands_on_its_attribute(tmp_path):
    cfg = _resolve(tmp_path, ["simulate"], FULL_INI)
    assert {name: getattr(cfg, name) for name in FULL_EXPECTED} == FULL_EXPECTED
    assert set(FULL_EXPECTED) == {f.name for f in fields(RunConfig)} - {"command"}
    default = _resolve(tmp_path, ["simulate"])
    assert all(getattr(default, name) != v for name, v in FULL_EXPECTED.items())


def test_defaults(tmp_path):
    cfg = _resolve(tmp_path, ["train"])
    assert cfg.params == STOCK_CONDITIONS
    assert (cfg.out, cfg.order, cfg.c_lim, cfg.seed) == ("out", 10, 1e6, 20260808)
    assert cfg.store == os.path.join("out", "store.json")
    assert cfg.train_data == {
        "C1": os.path.join("out", "train_C1.csv"), "C2": os.path.join("out", "train_C2.csv")
    }
    assert cfg.data == os.path.join("out", "validation.csv")
    assert cfg.evaluate_data == {"VAL": cfg.data}
    assert (cfg.window, cfg.priors, cfg.snr_scale) == (20, "uniform", "linear")


def test_paths_follow_the_out_flag(tmp_path):
    cfg = _resolve(tmp_path, ["evaluate", "--out", "b"], "[common]\nout = a\n")
    assert cfg.out == "b"
    assert cfg.store == os.path.join("b", "store.json")
    assert cfg.train_data["C1"] == os.path.join("b", "train_C1.csv")
    assert cfg.evaluate_data == {"VAL": os.path.join("b", "validation.csv")}


# ------------------------------------------------- command-section precedence


PRECEDENCE_INI = """
[train]
store = train.json

[estimate]
store = estimate.json
data = online.csv
window = 30
priors = 1, 2

[evaluate]
store = evaluate.json
window = 50
priors = 3, 1
"""


@pytest.mark.parametrize(
    "command, store, window, priors",
    [
        ("simulate", "train.json", 30, [1.0, 2.0]),
        ("train", "train.json", 30, [1.0, 2.0]),
        ("estimate", "estimate.json", 30, [1.0, 2.0]),
        ("evaluate", "evaluate.json", 50, [3.0, 1.0]),
    ],
)
def test_own_section_overrides(tmp_path, command, store, window, priors):
    cfg = _resolve(tmp_path, [command], PRECEDENCE_INI)
    assert (cfg.store, cfg.window, cfg.priors) == (store, window, priors)
    assert cfg.data == "online.csv"


def test_estimate_section_reaches_evaluate(tmp_path):
    # the benchmark's INI sets the window in [estimate] only
    ini = "[estimate]\nwindow = 40\npriors = 2, 1\nstore = e.json\n"
    cfg = _resolve(tmp_path, ["evaluate"], ini)
    assert (cfg.window, cfg.priors) == (40, [2.0, 1.0])
    # store follows the same rule: [estimate] over [train], [evaluate] over both
    assert cfg.store == "e.json"
    assert _resolve(tmp_path, ["evaluate"], ini + "[train]\nstore = t.json\n").store == "e.json"
    assert _resolve(tmp_path, ["evaluate"], ini + "[evaluate]\nstore = v.json\n").store == "v.json"


@pytest.mark.parametrize("command", ["train", "estimate"])
def test_evaluate_section_is_evaluate_only(tmp_path, command):
    ini = "[evaluate]\nwindow = 50\npriors = 3, 1\nstore = v.json\n"
    cfg = _resolve(tmp_path, [command], ini)
    assert (cfg.window, cfg.priors) == (20, "uniform")
    assert cfg.store == os.path.join("out", "store.json")


def test_evaluate_data_and_estimate_data(tmp_path):
    both = "[estimate]\ndata = online.csv\n[evaluate]\ndata = V1=v1.csv, V2=v2.csv\n"
    for command in ("estimate", "evaluate"):
        cfg = _resolve(tmp_path, [command], both)
        assert cfg.data == "online.csv"
        assert cfg.evaluate_data == {"V1": "v1.csv", "V2": "v2.csv"}
    cfg = _resolve(tmp_path, ["evaluate"], "[estimate]\ndata = online.csv\n")
    assert cfg.evaluate_data == {"VAL": "online.csv"}
    cfg = _resolve(tmp_path, ["evaluate", "--out", "o"])
    assert cfg.evaluate_data == {"VAL": os.path.join("o", "validation.csv")}


# ------------------------------------------------------- flags over the INI


@pytest.mark.parametrize(
    "command, ini, flags, attr, value",
    [
        ("simulate", "[common]\nseed = 5\n", ["--seed", "9"], "seed", 9),
        ("train", "[common]\norder = 5\n", ["--order", "8"], "order", 8),
        ("train", "[common]\nc_lim = 1e5\n", ["--clim", "1e7"], "c_lim", 1e7),
        ("train", "[common]\nout = a\n", ["--out", "b"], "out", "b"),
        ("estimate", "[estimate]\nwindow = 30\n", ["--window", "45"], "window", 45),
        ("evaluate", "[evaluate]\nwindow = 30\n", ["--window", "45"], "window", 45),
        # a flag also overrides the [estimate] value that evaluate inherits
        ("evaluate", "[estimate]\nwindow = 30\n", ["--window", "45"], "window", 45),
        ("evaluate", "[estimate]\nstore = a.json\n", ["--store", "b.json"], "store", "b.json"),
        ("simulate", "[simulate]\nsnr = 30\n", ["--snr", "70"], "snr", 70.0),
        ("simulate", "[simulate]\nsnr_scale = linear\n", ["--snr-db"], "snr_scale", "db"),
        ("simulate", "[simulate]\nsnr = 30\n", ["--snr", "inf"], "snr", math.inf),
        ("train", "[train]\nstore = a.json\n", ["--store", "b.json"], "store", "b.json"),
        ("estimate", "[estimate]\nstore = a.json\n", ["--store", "b.json"], "store", "b.json"),
        ("evaluate", "[evaluate]\nstore = a.json\n", ["--store", "b.json"], "store", "b.json"),
        ("estimate", "[estimate]\ndata = a.csv\n", ["--data", "b.csv"], "data", "b.csv"),
    ],
)
def test_flag_overrides_ini(tmp_path, command, ini, flags, attr, value):
    assert getattr(_resolve(tmp_path, [command], ini), attr) != value
    assert getattr(_resolve(tmp_path, [command, *flags], ini), attr) == value


def test_flags_without_ini(tmp_path):
    cfg = _resolve(tmp_path, ["simulate", "--snr", "20", "--snr-db", "--seed", "3"])
    assert (cfg.snr, cfg.snr_scale, cfg.seed) == (20.0, "db", 3)


# ------------------------------------------------------------- option sets


# each command takes only the flags whose setting it reads
COMMON_OPTIONS = {"-h", "--help", "--config", "--out"}


def _subparser(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


@pytest.mark.parametrize(
    "command, extra",
    [("simulate", {"--seed", "--order", "--snr", "--snr-db"}),
     ("train", {"--order", "--clim", "--store"}),
     ("estimate", {"--window", "--store", "--data"}),
     ("evaluate", {"--window", "--store"})],
)
def test_option_set_of_each_subcommand(command, extra):
    p = _subparser(command)
    assert {opt for a in p._actions for opt in a.option_strings} == COMMON_OPTIONS | extra
    assert ("--clim CLIM" in p.format_help()) == (command == "train")


def test_top_level_options():
    parser = build_parser()
    assert {opt for a in parser._actions for opt in a.option_strings} == {
        "-h", "--help", "--version"
    }
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(COMMANDS)


# ------------------------------------------------------------ SNR extremes


@pytest.mark.parametrize(
    "flags, fragment",
    [
        (["--snr", "-4000", "--snr-db"], "channel 'y_I1_a'"),  # 10**-400 underflows to 0
        (["--snr=-inf", "--snr-db"], "-inf"),
        (["--snr", "1e-320"], "channel 'y_I1_a'"),  # power / snr overflows
    ],
    ids=["-4000-db", "-inf-db", "subnormal-linear"],
)
def test_snr_without_finite_noise_is_a_config_error(tmp_path, capsys, flags, fragment):
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["simulate", "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("config error: ") and "snr" in err and fragment in err
    assert not out.exists()


def test_snr_beyond_float_range_is_clean(tmp_path):
    assert main(["simulate", "--out", str(tmp_path / "db"), "--snr", "4000", "--snr-db"]) == 0
    assert main(["simulate", "--out", str(tmp_path / "clean"), "--snr", "inf"]) == 0
    for name in ("train_C1.csv", "train_C2.csv", "validation.csv"):
        assert (tmp_path / "db" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


# ------------------------------------------------------------ schedule checks


@pytest.mark.parametrize(
    "schedule, message",
    [
        ("Z:0", "schedule references unknown condition 'Z'"),
        ("C1:0, Z:5", "schedule references unknown condition 'Z'"),
        ("C1:80, C2:0", "schedule duration for 'C2' must be >= 1, got 0"),
    ],
)
def test_schedule_labels_are_checked_before_durations(tmp_path, capsys, schedule, message):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[simulate]\nschedule = {schedule}\n")
    capsys.readouterr()
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()
