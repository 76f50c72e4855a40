import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import transched
from transched.cli import STOCK_CONDITIONS, main
from transched.errors import DataError
from transched.simulator import (
    QuarterCarParams,
    SwitchSchedule,
    build_continuous,
    c2d_zoh,
    gen_excitation,
    simulate,
)


def _run(args):
    return main(args)


def _read_chosen_sequence(path):
    lines = path.read_text().splitlines()
    return [line.split(",")[3] for line in lines[2:]]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Default-config end-to-end run shared by the read-only assertions."""
    out = tmp_path_factory.mktemp("pipeline")
    for command in ("simulate", "train", "estimate", "evaluate"):
        assert _run([command, "--out", str(out)]) == 0
    return out


def test_simulate_outputs(pipeline_dir):
    for name in ("train_C1.csv", "train_C2.csv", "validation.csv",
                 "simulate_manifest.json"):
        assert (pipeline_dir / name).exists()
    header = (pipeline_dir / "validation.csv").read_text().splitlines()[0]
    assert header == "y_I1_a,y_I2,y_O,true_label"
    train_header = (pipeline_dir / "train_C1.csv").read_text().splitlines()[0]
    assert "true_label" not in train_header
    lines = (pipeline_dir / "validation.csv").read_text().splitlines()
    assert len(lines) == 1 + 160
    assert lines[1].endswith(",C1") and lines[-1].endswith(",C2")
    manifest = json.loads((pipeline_dir / "simulate_manifest.json").read_text())
    assert manifest["seed"] == 20260808
    assert manifest["schedule"] == [["C1", 80], ["C2", 80]]


def test_train_writes_store(pipeline_dir):
    store = json.loads((pipeline_dir / "store.json").read_text())
    assert store["version"] == 1
    assert [c["label"] for c in store["conditions"]] == ["C1", "C2"]
    assert len(store["conditions"][0]["G"]["theta"]) == 2 * 11
    assert len(store["conditions"][0]["H"]["theta"]) == 1 * 11
    assert store["average"] is not None
    assert store["decomposition"]["aux_output"] == "y_I2"


def test_estimate_reproduces_switching_sequence(pipeline_dir):
    seq = _read_chosen_sequence(pipeline_dir / "trace_windows.csv")
    assert seq == ["C1"] * 4 + ["C2"] * 4
    sample_lines = (pipeline_dir / "trace_samples.csv").read_text().splitlines()
    assert len(sample_lines) == 2 + 160


def test_evaluate_report(pipeline_dir):
    lines = (pipeline_dir / "report.csv").read_text().splitlines()
    assert len(lines) == 2 + 1  # single online condition by default
    cells = lines[2].split(",")
    fits = {"G1": float(cells[1]), "G2": float(cells[2]), "avg": float(cells[3]),
            "sched": float(cells[4]), "ideal": float(cells[5])}
    # on the switching record the scheduled estimator must not lose to any
    # individual model by more than 0.5 percentage points
    assert fits["sched"] >= fits["G1"] - 0.5
    assert fits["sched"] >= fits["G2"] - 0.5
    assert fits["ideal"] == max(fits["G1"], fits["G2"])
    accuracy_lines = (pipeline_dir / "report_accuracy.csv").read_text().splitlines()
    assert accuracy_lines[1] == "classifier,accuracy"
    assert {l.split(",")[0] for l in accuracy_lines[2:]} == {"full", "pooled"}


def test_evaluate_predicts_each_member_once_per_record(pipeline_dir, tmp_path, monkeypatch):
    # both classifier variants score the windows from one residual pass: per
    # record, Q primaries, Q auxiliaries and the average model predict once
    import transched.scheduler
    import transched.transmissibility

    calls = []
    real = transched.transmissibility.predict

    def counting(model, *args, **kwargs):
        calls.append(model)
        return real(model, *args, **kwargs)

    for module in (transched.transmissibility, transched.scheduler):
        monkeypatch.setattr(module, "predict", counting)
    for name in ("store.json", "validation.csv"):
        shutil.copy(pipeline_dir / name, tmp_path / name)
    assert _run(["evaluate", "--out", str(tmp_path)]) == 0
    store = json.loads((tmp_path / "store.json").read_text())
    q = len(store["conditions"])
    assert len(calls) == 2 * q + 1
    assert len({id(m) for m in calls}) == len(calls)


def test_pipeline_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        for command in ("simulate", "train", "estimate", "evaluate"):
            assert _run([command, "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# estimate, then evaluate, in one child interpreter
_ONLINE_COMMANDS = """
import sys
from transched.cli import main
sys.exit(main(["estimate", *sys.argv[1:]]) or main(["evaluate", *sys.argv[1:]]))
"""


def test_online_artifacts_identical_on_every_openblas_kernel_and_thread_count(tmp_path):
    # The online stage makes no BLAS call, so from one store and the same
    # CSVs its traces and reports must not depend on the kernel OpenBLAS
    # picks or on how many threads it runs (those round GEMV differently).
    shared = tmp_path / "shared"
    ini = tmp_path / "run.ini"
    ini.write_text(f"[common]\norder = 10\n[simulate]\nschedule = C1:10000, C2:10000\n"
                   f"[train]\nstore = {shared / 'store.json'}\n"
                   f"[estimate]\ndata = {shared / 'validation.csv'}\n")
    for command in ("simulate", "train"):
        assert _run([command, "--config", str(ini), "--out", str(shared)]) == 0
    src = os.path.dirname(os.path.dirname(transched.__file__))
    children = {}
    for kernel in (None, "Prescott", "Haswell"):
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            env.pop("OPENBLAS_CORETYPE", None)
            if kernel is not None:
                env["OPENBLAS_CORETYPE"] = kernel
            out = tmp_path / f"{kernel}-{threads}"
            children[out] = subprocess.Popen(
                [sys.executable, "-c", _ONLINE_COMMANDS, "--config", str(ini),
                 "--out", str(out)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
    digests = {}
    for out, child in children.items():
        _, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        digests[out.name] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
        }
    first = digests["None-1"]
    assert len(first) == 6  # two traces, three reports, validation.csv's parse-cache entry
    for setting, files in digests.items():
        assert files == first, setting


def test_seed_changes_data(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["simulate", "--out", str(a), "--seed", "1"]) == 0
    assert _run(["simulate", "--out", str(b), "--seed", "2"]) == 0
    assert (a / "validation.csv").read_bytes() != (b / "validation.csv").read_bytes()


def test_snr_inf_is_noise_free(tmp_path):
    out = tmp_path / "clean"
    assert _run(["simulate", "--out", str(out), "--snr", "inf"]) == 0
    lines = (out / "train_C1.csv").read_text().splitlines()
    assert lines[0] == "y_I1_a,y_I2,y_O"
    written = np.array([[float(c) for c in line.split(",")] for line in lines[1:]]).T
    # the first record's excitation seed, drawn from the default root seed
    seed = int(np.random.SeedSequence(20260808).generate_state(6)[0])
    systems = {label: c2d_zoh(build_continuous(QuarterCarParams(**p)), 0.1)
               for label, p in STOCK_CONDITIONS.items()}
    z = gen_excitation(1000, 0.01, seed)
    expected = simulate(systems, SwitchSchedule(steps=(("C1", 1000),)), z)
    np.testing.assert_array_equal(written, expected.data)


def test_snr_db_flag(tmp_path):
    out = tmp_path / "db"
    assert _run(["simulate", "--out", str(out), "--snr", "50", "--snr-db"]) == 0
    manifest = json.loads((out / "simulate_manifest.json").read_text())
    assert manifest["snr_scale"] == "db"


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "flags, snr, scale",
    [
        ([], 50.0, "linear"),
        (["--snr", "inf"], "clean", "linear"),
        (["--snr", "inf", "--snr-db"], "clean", "db"),
        (["--snr", "4000", "--snr-db"], 4000.0, "db"),  # a power ratio beyond float range
    ],
)
def test_manifest_is_strict_json(tmp_path, flags, snr, scale):
    out = tmp_path / "o"
    assert _run(["simulate", "--out", str(out), *flags]) == 0
    manifest = json.loads((out / "simulate_manifest.json").read_text(),
                          parse_constant=_no_constant)
    assert (manifest["snr"], manifest["snr_scale"]) == (snr, scale)


def test_pooled_flag(tmp_path):
    out = tmp_path / "pooled"
    for command in ("simulate", "train"):
        assert _run([command, "--out", str(out)]) == 0
    assert _run(["estimate", "--out", str(out), "--pooled"]) == 0
    seq = _read_chosen_sequence(out / "trace_windows.csv")
    assert seq == ["C1"] * 4 + ["C2"] * 4


def test_config_file_overrides(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[common]\n"
        "order = 6\n"
        "seed = 99\n"
        f"out = {tmp_path / 'cfgout'}\n"
        "[simulate]\n"
        "train_samples = 500\n"
        "schedule = C1:40, C2:40\n"
        "snr = 100\n"
    )
    assert _run(["simulate", "--config", str(cfg)]) == 0
    assert _run(["train", "--config", str(cfg)]) == 0
    lines = (tmp_path / "cfgout" / "train_C1.csv").read_text().splitlines()
    assert len(lines) == 1 + 500
    store = json.loads((tmp_path / "cfgout" / "store.json").read_text())
    assert store["order"] == 6
    val_lines = (tmp_path / "cfgout" / "validation.csv").read_text().splitlines()
    assert len(val_lines) == 1 + 80


def test_five_condition_store(tmp_path):
    base = dict(m_s=300, m_u=40)
    variants = {
        "W1": dict(k_s=2.0e4, k_r=1.8e5, c_s=1.5e3),
        "W2": dict(k_s=4.0e4, k_r=2.0e5, c_s=2.5e3),
        "W3": dict(k_s=1.2e4, k_r=1.6e5, c_s=1.0e3),
        "W4": dict(k_s=3.0e4, k_r=2.4e5, c_s=3.5e3),
        "W5": dict(k_s=5.0e4, k_r=1.4e5, c_s=2.0e3),
    }
    sections = "".join(
        f"[params.{label}]\n"
        + "".join(f"{k} = {v}\n" for k, v in {**base, **extra}.items())
        for label, extra in variants.items()
    )
    cfg = tmp_path / "five.ini"
    cfg.write_text(
        f"[common]\nout = {tmp_path / 'five'}\n"
        "[simulate]\nschedule = W1:40, W5:40\n" + sections
    )
    assert _run(["simulate", "--config", str(cfg)]) == 0
    assert _run(["train", "--config", str(cfg)]) == 0
    store = json.loads((tmp_path / "five" / "store.json").read_text())
    assert [c["label"] for c in store["conditions"]] == list(variants)


def test_exit_code_numerical_failure(tmp_path):
    out = tmp_path / "degenerate"
    out.mkdir()
    header = "y_I1_a,y_I2,y_O\n"
    rows = "".join("0.0,0.0,0.0\n" for _ in range(200))
    for label in ("C1", "C2"):
        (out / f"train_{label}.csv").write_text(header + rows)
    assert _run(["train", "--out", str(out)]) == 4


def test_custom_params_sections(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        f"[common]\nout = {tmp_path / 'o'}\n"
        "[simulate]\nschedule = A:30, B:30, A:30\n"
        "[params.A]\nm_s = 250\nm_u = 35\nk_s = 1.5e4\nk_r = 1.6e5\nc_s = 1.2e3\n"
        "[params.B]\nm_s = 250\nm_u = 35\nk_s = 3.5e4\nk_r = 2.1e5\nc_s = 2.2e3\n"
    )
    assert _run(["simulate", "--config", str(cfg)]) == 0
    assert (tmp_path / "o" / "train_A.csv").exists()
    assert (tmp_path / "o" / "train_B.csv").exists()
    lines = (tmp_path / "o" / "validation.csv").read_text().splitlines()
    assert lines[1].endswith(",A") and lines[-1].endswith(",A")


def test_estimate_without_ground_truth(tmp_path, capsys):
    out = tmp_path / "o"
    for command in ("simulate", "train"):
        assert _run([command, "--out", str(out)]) == 0
    traces = [out / "trace_windows.csv", out / "trace_samples.csv"]
    capsys.readouterr()
    assert _run(["estimate", "--out", str(out)]) == 0
    sighted = capsys.readouterr().out, [p.read_bytes() for p in traces]
    lines = (out / "validation.csv").read_text().splitlines()
    header = lines[0].split(",")
    drop = header.index("y_O")
    kept = [i for i in range(len(header)) if i != drop]
    blind = out / "online_blind.csv"
    blind.write_text(
        "\n".join(",".join(line.split(",")[i] for i in kept) for line in lines) + "\n"
    )
    assert _run(["estimate", "--out", str(out), "--data", str(blind)]) == 0
    # no trace depends on the target: blind and sighted runs write one text
    assert (capsys.readouterr().out, [p.read_bytes() for p in traces]) == sighted
    seq = _read_chosen_sequence(out / "trace_windows.csv")
    assert seq == ["C1"] * 4 + ["C2"] * 4


def test_evaluate_pooled_variant_flag(tmp_path):
    out = tmp_path / "o"
    for command in ("simulate", "train"):
        assert _run([command, "--out", str(out)]) == 0
    assert _run(["evaluate", "--out", str(out), "--pooled"]) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 3


def test_user_supplied_channels_detrend_and_priors(tmp_path):
    """Bring-your-own-CSV path: renamed columns, mean offsets, explicit priors."""
    stock = tmp_path / "stock"
    assert _run(["simulate", "--out", str(stock), "--seed", "7"]) == 0

    def rewrite(src, dst, drop_label):
        lines = src.read_text().splitlines()
        header = lines[0].split(",")
        rename = {"y_I1_a": "acc_u", "y_I2": "acc_s", "y_O": "deflection"}
        keep = [i for i, h in enumerate(header)
                if h in rename or (h == "true_label" and not drop_label)]
        out_lines = [",".join(rename.get(header[i], header[i]) for i in keep)]
        for line in lines[1:]:
            cells = line.split(",")
            shifted = []
            for i in keep:
                if header[i] == "true_label":
                    shifted.append(cells[i])
                else:
                    shifted.append(repr(float(cells[i]) + 3.5))  # add a DC offset
            out_lines.append(",".join(shifted))
        dst.write_text("\n".join(out_lines) + "\n")

    work = tmp_path / "work"
    work.mkdir()
    rewrite(stock / "train_C1.csv", work / "c1.csv", drop_label=True)
    rewrite(stock / "train_C2.csv", work / "c2.csv", drop_label=True)
    rewrite(stock / "validation.csv", work / "online.csv", drop_label=False)
    cfg = tmp_path / "custom.ini"
    cfg.write_text(
        f"[common]\nout = {work}\ndetrend = true\n"
        "[channels]\nacc_u = pseudo_input\nacc_s = pseudo_input\n"
        "deflection = target_output\n"
        "[decomposition]\naux_output = acc_s\n"
        f"[train]\ndata = C1={work / 'c1.csv'}, C2={work / 'c2.csv'}\n"
        f"[estimate]\ndata = {work / 'online.csv'}\npriors = 0.5, 0.5\n"
        f"[evaluate]\ndata = VAL={work / 'online.csv'}\n"
    )
    assert _run(["train", "--config", str(cfg)]) == 0
    assert _run(["estimate", "--config", str(cfg)]) == 0
    assert _run(["evaluate", "--config", str(cfg)]) == 0
    store = json.loads((work / "store.json").read_text())
    assert store["channel_names"]["pseudo_inputs"] == ["acc_u", "acc_s"]
    assert store["decomposition"]["aux_output"] == "acc_s"
    seq = _read_chosen_sequence(work / "trace_windows.csv")
    assert seq == ["C1"] * 4 + ["C2"] * 4  # DC offset removed by detrend
    report_lines = (work / "report.csv").read_text().splitlines()
    assert len(report_lines) == 2 + 1


# ------------------------------------------------------------- failure modes


def test_exit_code_config_error(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[common]\norder = banana\n")
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_exit_code_schedule_total_mismatch(tmp_path, capsys):
    # each duration alone is a valid int, but their sum is more samples than
    # one record can hold: rejected before anything is allocated or written
    cfg = tmp_path / "bad.ini"
    step = sys.maxsize // 4
    cfg.write_text(f"[simulate]\nschedule = C1:{step}, C2:{step}\n")
    capsys.readouterr()
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    _assert_one_line_error(capsys, f"config error: schedule total {2 * step} exceeds")
    assert not (tmp_path / "o").exists()


_STOCK_PARAMS = "".join(
    f"[params.{label}]\n" + "".join(f"{key} = {value!r}\n" for key, value in params.items())
    for label, params in STOCK_CONDITIONS.items()
)


@pytest.mark.parametrize("command", ["simulate", "train", "estimate", "evaluate"])
@pytest.mark.parametrize(
    "ini, named",
    [
        ("[estimate]\nwidnow = 30\n", "[estimate] widnow"),
        ("[simulat]\ntrain_samples = 300\n", "[simulat] train_samples"),
        ("[common]\nstore = s.json\n", "[common] store"),  # [common] has no store
        (f"{_STOCK_PARAMS}k_t = 1\n", "[params.C2] k_t"),
        ("[DEFAULT]\norder = 4\n", "[DEFAULT] order"),
        ("[simulate]\nclean = yes\n", "[simulate] clean"),  # noise-free data is snr = inf
        ("[simulate]\nvalidation_samples = 160\n", "[simulate] validation_samples"),
    ],
    ids=["key", "section", "common-store", "params-key", "default", "clean",
         "validation-samples"],
)
def test_unread_ini_key_is_a_config_error(pipeline_dir, tmp_path, capsys, command, ini, named):
    # without the key each command would succeed and write into out
    out = tmp_path / "out"
    shutil.copytree(pipeline_dir, out)
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert _run([command, "--config", str(cfg), "--out", str(out)]) == 2
    _assert_one_line_error(capsys, f"config error: {cfg}: {named}: unknown ")
    assert _tree(tmp_path) == before


def test_exit_code_unknown_schedule_label(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[simulate]\nschedule = C9:80\n")
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_exit_code_missing_data(tmp_path):
    assert _run(["train", "--out", str(tmp_path / "void")]) == 3


def test_exit_code_mismatched_channel_names(tmp_path):
    out = tmp_path / "o"
    assert _run(["simulate", "--out", str(out)]) == 0
    renamed = (out / "train_C2.csv").read_text().replace("y_I2", "y_other")
    (out / "train_C2.csv").write_text(renamed)
    assert _run(["train", "--out", str(out)]) == 3


def test_exit_code_window_not_exceeding_order(pipeline_dir, tmp_path, capsys):
    code = _run(["estimate", "--out", str(pipeline_dir), "--window", "10"])
    assert code == 2
    assert "exceed the stored FIR order" in capsys.readouterr().err


def test_exit_code_bad_store_version(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    (out / "store.json").write_text('{"version": 7}')
    (out / "validation.csv").write_text("y_I1_a,y_I2,y_O\n0,0,0\n")
    assert _run(["estimate", "--out", str(out)]) == 3


def _copy_outputs(src, dst, names):
    dst.mkdir()
    for name in names:
        shutil.copy(src / name, dst / name)
    return dst


def _corrupt_cell(path, line, column, value):
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[line - 1].split(",")
    cells[column] = value
    lines[line - 1] = ",".join(cells)
    path.write_text("".join(lines))


def _assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


def test_exit_code_non_finite_training_csv(pipeline_dir, tmp_path, capsys):
    out = _copy_outputs(pipeline_dir, tmp_path / "o", ("train_C1.csv", "train_C2.csv"))
    _corrupt_cell(out / "train_C1.csv", 5, 0, "nan")
    capsys.readouterr()
    assert _run(["train", "--out", str(out)]) == 3
    _assert_one_line_error(capsys, "train_C1.csv: line 5", "non-finite", "'y_I1_a'")
    assert not (out / "store.json").exists()


def test_exit_code_non_finite_validation_csv(pipeline_dir, tmp_path, capsys):
    out = _copy_outputs(pipeline_dir, tmp_path / "o", ("store.json", "validation.csv"))
    _corrupt_cell(out / "validation.csv", 40, 1, "inf")
    capsys.readouterr()
    assert _run(["estimate", "--out", str(out)]) == 3
    _assert_one_line_error(capsys, "validation.csv: line 40", "non-finite value inf", "'y_I2'")


@pytest.mark.parametrize(
    "corrupt, fragment",
    [
        (lambda doc: doc.pop("order"), "missing key 'order'"),
        (lambda doc: doc["conditions"][0]["G"].pop("theta"), "missing key 'theta'"),
    ],
)
def test_exit_code_malformed_store(pipeline_dir, tmp_path, capsys, corrupt, fragment):
    out = _copy_outputs(pipeline_dir, tmp_path / "o", ("store.json", "validation.csv"))
    doc = json.loads((out / "store.json").read_text())
    corrupt(doc)
    (out / "store.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert _run(["estimate", "--out", str(out)]) == 3
    _assert_one_line_error(capsys, "store.json", fragment)


def _edit(name, change):
    def apply(out):
        path = out / name
        path.write_text(change(path.read_text()))
    return apply


def _keep_lines(n):
    return lambda text: "".join(text.splitlines(keepends=True)[:n])


def _drop_theta_coefficient(text):
    doc = json.loads(text)
    doc["conditions"][1]["G"]["theta"].pop()
    return json.dumps(doc)


def _constant_target(text):
    lines = text.splitlines(keepends=True)
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[2] = "0.25"  # y_O
        lines[i] = ",".join(cells)
    return "".join(lines)


def _non_utf8_last_label(out):
    path = out / "validation.csv"
    raw = path.read_bytes()
    cut = raw.rindex(b",C2\n")  # past the block the header read decodes
    path.write_bytes(raw[:cut] + b",C\xff2\n")


def _data_is_a_directory(out):
    (out / "validation.csv").unlink()
    (out / "validation.csv").mkdir()


_TRAIN_FILES = ("train_C1.csv", "train_C2.csv")
_ONLINE_FILES = ("store.json", "validation.csv")


@pytest.mark.parametrize(
    "command, files, corrupt, fragments",
    [
        pytest.param("estimate", _ONLINE_FILES,
                     _edit("validation.csv", lambda t: t.replace(",C1\n", "\n", 1)),
                     ["validation.csv: line 2", "expected 4 columns, found 3"], id="ragged-row"),
        pytest.param("train", _TRAIN_FILES, _edit("train_C1.csv", _keep_lines(1)),
                     ["train_C1.csv: no samples"], id="header-only"),
        pytest.param("evaluate", _ONLINE_FILES,
                     lambda out: _corrupt_cell(out / "validation.csv", 9, 2, "1.5x"),
                     ["validation.csv: line 9", "non-numeric value '1.5x'", "'y_O'"],
                     id="non-numeric-cell"),
        pytest.param("estimate", _ONLINE_FILES,
                     _edit("validation.csv", lambda t: t.replace("true_label", "y_I2", 1)),
                     ["validation.csv", "'y_I2' appears 2 times"], id="duplicate-header"),
        pytest.param("train", _TRAIN_FILES, _edit("train_C2.csv", _keep_lines(9)),
                     ["train_C2.csv: 8 samples are too few for FIR order 10"],
                     id="fewer-samples-than-order"),
        pytest.param("estimate", _ONLINE_FILES, _edit("validation.csv", _keep_lines(11)),
                     ["validation.csv: 10 samples are too few for FIR order 10"],
                     id="no-classifiable-window"),
        pytest.param("evaluate", _ONLINE_FILES,
                     _edit("validation.csv", lambda t: t.replace("y_O,", "y_Q,", 1)),
                     ["validation.csv: ground-truth channel 'y_O' missing"],
                     id="evaluate-without-target"),
        pytest.param("evaluate", _ONLINE_FILES, _edit("validation.csv", _constant_target),
                     ["FIT is undefined for a constant measured signal"],
                     id="constant-target"),
        pytest.param("estimate", _ONLINE_FILES,
                     _edit("store.json", lambda t: t[: len(t) // 2]),
                     ["store.json: not a valid model store"], id="truncated-store"),
        pytest.param("evaluate", _ONLINE_FILES, _edit("store.json", _drop_theta_coefficient),
                     ["store.json: theta length 21 does not match"], id="wrong-theta-length"),
        pytest.param("estimate", _ONLINE_FILES,
                     _edit("validation.csv",
                           lambda t: t.replace(",C1\n", ',"' + "x" * 200_000 + '"\n', 1)),
                     ["validation.csv: unreadable CSV", "field larger than field limit"],
                     id="quoted-200000-character-cell"),
        pytest.param("estimate", _ONLINE_FILES, _non_utf8_last_label,
                     ["validation.csv: byte 0xff is not valid"], id="non-utf8-label"),
        pytest.param("estimate", _ONLINE_FILES, _data_is_a_directory,
                     ["validation.csv: cannot read"], id="data-is-a-directory"),
    ],
)
def test_fault_injection(pipeline_dir, tmp_path, capsys, command, files, corrupt, fragments):
    out = _copy_outputs(pipeline_dir, tmp_path / "o", files)
    corrupt(out)
    capsys.readouterr()
    assert _run([command, "--out", str(out)]) == 3
    _assert_one_line_error(capsys, "data error: ", *fragments)
    assert sorted(p.name for p in out.iterdir()) == sorted(files)  # nothing written


def test_train_with_more_parameters_than_rows_fails_before_fitting(
        pipeline_dir, tmp_path, capsys, monkeypatch):
    # 1000 samples at order 900 give 100 rows for 2 * 901 primary parameters
    def no_fit(*args):
        raise AssertionError("a hopeless fit must fail before its Gram matrix is formed")

    monkeypatch.setattr("transched.regression.ridge_fit", no_fit)
    out = _copy_outputs(pipeline_dir, tmp_path / "o", _TRAIN_FILES)
    capsys.readouterr()
    assert _run(["train", "--out", str(out), "--order", "900"]) == 3
    _assert_one_line_error(capsys, "data error: ", "train_C1.csv: condition 'C1': ",
                           "100 regression rows are too few for 1802 FIR parameters")
    assert sorted(p.name for p in out.iterdir()) == sorted(_TRAIN_FILES)  # nothing written


def test_quoted_header_reads_like_load_csv(pipeline_dir, tmp_path):
    out = _copy_outputs(pipeline_dir, tmp_path / "o", _ONLINE_FILES)
    plain = (out / "validation.csv").read_text()
    quoted = plain.replace("y_O,", '"y_O",', 1)
    (out / "validation.csv").write_text(quoted)
    assert _run(["evaluate", "--out", str(out)]) == 0
    assert (out / "report.csv").read_bytes() == (pipeline_dir / "report.csv").read_bytes()


def test_exit_code_clim_above_ceiling(tmp_path, capsys):
    capsys.readouterr()
    assert _run(["train", "--out", str(tmp_path / "o"), "--clim", "1e13"]) == 2
    _assert_one_line_error(capsys, "c_lim")


def test_exit_code_non_finite_priors(pipeline_dir, tmp_path, capsys):
    out = _copy_outputs(pipeline_dir, tmp_path / "o", ("store.json", "validation.csv"))
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[estimate]\npriors = nan, nan\n")
    capsys.readouterr()
    assert _run(["estimate", "--config", str(cfg), "--out", str(out)]) == 2
    _assert_one_line_error(capsys, "config error", "prior weights must be finite")
    assert not (out / "trace_windows.csv").exists()


@pytest.mark.parametrize("command", ["estimate", "evaluate"])
def test_exit_code_prior_sum_overflows(tmp_path, capsys, command):
    out = tmp_path / "o"
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[estimate]\npriors = 1e308, 1e308\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise
        assert _run([command, "--config", str(cfg), "--out", str(out)]) == 2
    _assert_one_line_error(capsys, "config error", "finite positive sum, got [1e+308, 1e+308]")
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, fragment",
    [
        ("train_samples = 100000000000000000000", "train_samples 100000000000000000000"),
        ("schedule = C1:100000000000000000000", "schedule total 1000000000000"),
    ],
)
def test_exit_code_sample_count_past_address_space(tmp_path, capsys, setting, fragment):
    # numpy rejects 10**20 samples before it allocates anything
    out = tmp_path / "o"
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[simulate]\n{setting}\n")
    capsys.readouterr()
    assert _run(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    _assert_one_line_error(capsys, "config error", fragment)
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, fragment",
    [(["--seed", "-3"], "seed must be non-negative"), (["--snr", "nan"], "snr")],
)
def test_exit_code_bad_seed_or_snr(tmp_path, capsys, flags, fragment):
    out = tmp_path / "o"
    capsys.readouterr()
    assert _run(["simulate", "--out", str(out), *flags]) == 2
    _assert_one_line_error(capsys, "config error", fragment)
    assert not out.exists()


def test_no_partial_outputs_on_validation_failure(tmp_path):
    out = tmp_path / "o"
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[common]\nout = {out}\n[simulate]\nsnr = -5\n")
    assert _run(["simulate", "--config", str(cfg)]) == 2
    assert not out.exists()


def test_missing_config_file(tmp_path):
    assert _run(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2


@pytest.mark.parametrize(
    "make, fragment",
    [
        (lambda p: p.write_bytes(b"[common]\norder = 6 ; caf\xe9\n"),
         "byte 0xe9 is not valid UTF-8"),
        (lambda p: p.mkdir(), "cannot read"),
    ],
    ids=["non-utf8-byte", "directory"],
)
def test_exit_code_unreadable_config(tmp_path, capsys, make, fragment):
    cfg = tmp_path / "run.ini"
    make(cfg)
    capsys.readouterr()
    assert _run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    _assert_one_line_error(capsys, "config error: ", "run.ini", fragment)
    assert not (tmp_path / "o").exists()


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def test_simulate_out_is_a_file(tmp_path, capsys):
    (tmp_path / "f").write_text("keep\n")
    before = _tree(tmp_path)
    capsys.readouterr()
    assert _run(["simulate", "--out", str(tmp_path / "f")]) == 2
    _assert_one_line_error(capsys, "config error: ", "exists and is not a directory")
    assert _tree(tmp_path) == before


def test_simulate_destination_is_a_directory(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "train_C1.csv").write_text("older run\n")
    (out / "validation.csv").mkdir()
    before = _tree(out)
    capsys.readouterr()
    assert _run(["simulate", "--out", str(out)]) == 2
    _assert_one_line_error(capsys, "config error: ", "validation.csv: it is a directory")
    assert _tree(out) == before


@pytest.mark.parametrize("existing", [True, False])
def test_simulate_failure_leaves_no_partial_output(tmp_path, capsys, monkeypatch, existing):
    import transched.simulator

    def fail_on_validation(systems, schedule, z, condition_label=None, noise=None):
        if condition_label == "validation":
            raise DataError("injected failure")
        return simulate(systems, schedule, z, condition_label=condition_label, noise=noise)

    # cmd_simulate imports simulate when it runs, so it picks up the patch
    monkeypatch.setattr(transched.simulator, "simulate", fail_on_validation)
    out = tmp_path / "o"
    if existing:
        out.mkdir()
        (out / "train_C1.csv").write_text("older run\n")
    before = _tree(tmp_path)
    capsys.readouterr()
    assert _run(["simulate", "--out", str(out)]) == 3  # after both training records
    _assert_one_line_error(capsys, "data error: injected failure")
    assert _tree(tmp_path) == before


def test_simulate_traced_peak_per_validation_sample(tmp_path):
    # one (3, N) float64 array per record plus its excitation and labels is
    # 40 bytes a sample; a noisy copy of the record would add 24 more
    assert _run(["simulate", "--out", str(tmp_path / "warm")]) == 0  # imports stay untraced
    ini = tmp_path / "run.ini"
    ini.write_text("[simulate]\nschedule = C1:20000, C2:20000\n")
    tracemalloc.start()
    try:
        assert _run(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 40_000 <= 56


def test_estimate_out_is_a_file(pipeline_dir, tmp_path, capsys):
    src = _copy_outputs(pipeline_dir, tmp_path / "in", _ONLINE_FILES)
    (tmp_path / "f").write_text("keep\n")
    before = _tree(tmp_path)
    capsys.readouterr()
    assert _run(["estimate", "--out", str(tmp_path / "f"), "--store", str(src / "store.json"),
                 "--data", str(src / "validation.csv")]) == 2
    _assert_one_line_error(capsys, "config error: ", "exists and is not a directory")
    assert _tree(tmp_path) == before


def test_train_store_is_a_directory(pipeline_dir, tmp_path, capsys):
    out = _copy_outputs(pipeline_dir, tmp_path / "o", _TRAIN_FILES)
    (out / "store").mkdir()
    before = _tree(tmp_path)
    capsys.readouterr()
    assert _run(["train", "--out", str(out), "--store", str(out / "store")]) == 2
    _assert_one_line_error(capsys, "config error: ", "store: it is a directory")
    assert _tree(tmp_path) == before


def test_train_store_in_a_new_directory(pipeline_dir, tmp_path, capsys):
    out = _copy_outputs(pipeline_dir, tmp_path / "o", _TRAIN_FILES)
    store = tmp_path / "models" / "store.json"
    assert _run(["train", "--out", str(out), "--store", str(store)]) == 0
    assert store.read_bytes() == (pipeline_dir / "store.json").read_bytes()
    assert os.listdir(store.parent) == ["store.json"]


@pytest.mark.parametrize(
    "command, blocked",
    [("estimate", "trace_samples.csv"), ("evaluate", "report_summary.csv")],
)
def test_output_destination_is_a_directory(pipeline_dir, tmp_path, capsys, command, blocked):
    out = _copy_outputs(pipeline_dir, tmp_path / "o", _ONLINE_FILES)
    (out / blocked).mkdir()
    before = _tree(out)
    capsys.readouterr()
    assert _run([command, "--out", str(out)]) == 2
    _assert_one_line_error(capsys, "config error: ", f"{blocked}: it is a directory")
    assert _tree(out) == before  # no earlier file of the command written


@pytest.mark.parametrize(
    "command, module, writer",
    [
        ("train", "transched.transmissibility", "save_store"),
        ("estimate", "transched.scheduler", "write_sample_trace"),
        ("evaluate", "transched.evaluation", "write_accuracy_csv"),
    ],
)
def test_write_failure_leaves_no_partial_output(
    pipeline_dir, tmp_path, capsys, monkeypatch, command, module, writer
):
    import importlib

    def fail(*args, **kwargs):
        raise DataError("injected failure")

    monkeypatch.setattr(importlib.import_module(module), writer, fail)
    out = _copy_outputs(pipeline_dir, tmp_path / "o", _TRAIN_FILES + _ONLINE_FILES)
    if command == "train":
        (out / "store.json").unlink()
    before = _tree(out)
    capsys.readouterr()
    assert _run([command, "--out", str(out)]) == 3
    _assert_one_line_error(capsys, "data error: injected failure")
    assert _tree(out) == before


# ------------------------------------------------------------- parse cache

_CHAIN = ("simulate", "train", "estimate", "evaluate")


def _entries(out):
    return sorted(out.glob(".parse-cache-*.npy"))


def _run_from(root, commands, prepare=None):
    """Run ``commands`` with ``--out o`` from ``root``, after ``prepare(root / "o")``;
    return (exit codes, stdout, output tree)."""
    if prepare is not None:
        prepare(root / "o")
    cwd, buf = os.getcwd(), io.StringIO()
    try:
        os.chdir(root)
        with contextlib.redirect_stdout(buf):
            codes = [_run([command, "--out", "o"]) for command in commands]
    finally:
        os.chdir(cwd)
    return codes, buf.getvalue(), _tree(root / "o")


def test_second_chain_reads_every_csv_from_the_cache(tmp_path, monkeypatch):
    from transched import dataset

    fresh, twice = tmp_path / "fresh", tmp_path / "twice"
    fresh.mkdir(), twice.mkdir()
    reference = _run_from(fresh, _CHAIN)
    assert reference[0] == [0] * 4 and len(_entries(fresh / "o")) == 3  # one per CSV
    assert _run_from(twice, _CHAIN) == reference

    def no_parse(*args):
        raise AssertionError("parsed, not read from the cache")

    monkeypatch.setattr(dataset, "_load_rows", no_parse)
    assert _run_from(twice, _CHAIN) == reference


def _each_entry(damage):
    return lambda out: [damage(entry) for entry in _entries(out)]


def _rewrite_entries(transform):
    def damage(entry):
        with entry.open("rb") as f:
            head, data = np.load(f), np.load(f)
        with entry.open("wb") as f:
            np.save(f, head)
            np.save(f, transform(data))

    return _each_entry(damage)


def _swap_entries(out):
    entries = _entries(out)
    contents = [e.read_bytes() for e in entries]
    for entry, text in zip(entries, contents[1:] + contents[:1]):
        entry.write_bytes(text)  # each holds another CSV's key


def _edit_validation_digit(out):
    path = out / "validation.csv"
    text = path.read_text()
    i = text.index("\n") + 3  # a digit of the first sample's first cell
    path.write_text(text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:])


_DELETE_ENTRIES = _each_entry(lambda e: e.unlink())


@pytest.fixture(scope="module")
def uncached_rerun(pipeline_dir, tmp_path_factory):
    """train, estimate and evaluate re-run on the stock chain's outputs with
    every parse-cache entry deleted, from an otherwise empty directory."""
    root = tmp_path_factory.mktemp("uncached")
    shutil.copytree(pipeline_dir, root / "o")
    return _run_from(root, _CHAIN[1:], _DELETE_ENTRIES)


def test_rerun_without_entries_recreates_them(pipeline_dir, uncached_rerun):
    # the entries a parse keeps are the bytes simulate staged without parsing
    codes, _, tree = uncached_rerun
    assert codes == [0, 0, 0] and len(_entries(pipeline_dir)) == 3
    assert tree == _tree(pipeline_dir)


@pytest.mark.parametrize(
    "damage",
    [
        _each_entry(lambda e: e.write_bytes(e.read_bytes()[: e.stat().st_size // 2])),
        _each_entry(lambda e: e.write_bytes(b"")),
        _rewrite_entries(lambda d: d[:, :-1]),
        _rewrite_entries(lambda d: d[:2]),
        _rewrite_entries(lambda d: d.astype(np.float32)),
        _swap_entries,
        _each_entry(lambda e: (e.unlink(), e.mkdir())),
    ],
    ids=["truncated", "empty", "fewer-samples", "fewer-channels", "float32", "swapped",
         "directory"],
)
def test_damaged_entries_give_the_uncached_run(pipeline_dir, tmp_path, uncached_rerun, damage):
    shutil.copytree(pipeline_dir, tmp_path / "o")
    codes, stdout, tree = _run_from(tmp_path, _CHAIN[1:], damage)
    assert (codes, stdout) == uncached_rerun[:2]
    expected = uncached_rerun[2]
    if (tmp_path / "o" / _entries(pipeline_dir)[0].name).is_dir():  # stays in the way
        expected = {**expected, **{e.name: None for e in _entries(pipeline_dir)}}
    assert tree == expected


def test_csv_edit_of_the_same_length_is_read_afresh(pipeline_dir, tmp_path):
    trees = {}
    for case, prepare in (("cached", _edit_validation_digit),
                          ("uncached", lambda out: (_DELETE_ENTRIES(out),
                                                    _edit_validation_digit(out)))):
        (tmp_path / case).mkdir()
        shutil.copytree(pipeline_dir, tmp_path / case / "o")
        trees[case] = _run_from(tmp_path / case, _CHAIN[1:], prepare)
    assert trees["cached"] == trees["uncached"]
    assert trees["cached"][2] != _tree(pipeline_dir)
    assert len(_entries(tmp_path / "cached" / "o")) == 3  # the stale entry was replaced


@pytest.mark.parametrize(
    "command, name, line",
    [("train", "train_C1.csv", 5), ("estimate", "validation.csv", 40),
     ("evaluate", "validation.csv", 40)],
)
def test_bad_csv_beside_its_entry_keeps_its_error(pipeline_dir, tmp_path, capsys,
                                                  command, name, line):
    out = tmp_path / "o"
    shutil.copytree(pipeline_dir, out)
    _corrupt_cell(out / name, line, 1, "nan")
    before = _tree(out)
    capsys.readouterr()
    assert _run([command, "--out", str(out)]) == 3
    _assert_one_line_error(capsys, "data error: ", f"{name}: line {line}: non-finite value nan",
                           "'y_I2'")
    assert _tree(out) == before


def test_simulate_with_a_directory_in_an_entry_place(pipeline_dir, tmp_path):
    out = tmp_path / "o"
    shutil.copytree(pipeline_dir, out)
    blocked = _entries(out)[0]
    blocked.unlink()
    blocked.mkdir()
    assert _run(["simulate", "--out", str(out)]) == 0
    assert _tree(out) == {**_tree(pipeline_dir), blocked.name: None}


@pytest.mark.parametrize("command", ["simulate", "train", "estimate", "evaluate"])
def test_non_positive_params_is_a_config_error_for_every_command(tmp_path, capsys, command):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[params.X]\nm_s = 300\nm_u = 40\nk_s = -1\nk_r = 1.8e5\nc_s = 1.5e3\n")
    capsys.readouterr()
    assert _run([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    _assert_one_line_error(
        capsys, "config error: quarter-car parameter k_s must be positive, got -1.0"
    )
    assert not (tmp_path / "o").exists()
