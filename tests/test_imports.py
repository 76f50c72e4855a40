"""Each command imports only the layers it runs; ``import transched`` loads none."""

import json
import os
import subprocess
import sys

import pytest

import transched

SRC = os.path.dirname(os.path.dirname(transched.__file__))
LAYERS = {"simulator", "dataset", "regression", "transmissibility", "scheduler", "evaluation"}

NOT_LOADED = {
    "simulate": {"regression", "transmissibility", "scheduler", "evaluation"},
    "train": {"simulator", "scheduler", "evaluation", "tabletext", "floattext"},
    "estimate": {"simulator", "regression", "evaluation"},
    "evaluate": {"simulator", "regression"},
}

REPORT = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("transched"))))
"""


def _loaded(body, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", REPORT.format(body=body)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return {m.split(".", 1)[1] for m in json.loads(proc.stdout.splitlines()[-1]) if "." in m}


@pytest.fixture(scope="module")
def footprints(tmp_path_factory):
    """Layer modules loaded by each command of the stock chain, in order."""
    out = tmp_path_factory.mktemp("chain")
    return {
        command: _loaded(
            f"from transched.cli import main\nassert main([{command!r}, '--out', 'o']) == 0",
            out,
        )
        for command in NOT_LOADED
    }


@pytest.mark.parametrize("command", list(NOT_LOADED))
def test_command_loads_only_its_layers(footprints, command):
    loaded = footprints[command]
    assert {"cli", "config", "dataset"} <= loaded
    assert not loaded & NOT_LOADED[command]


def test_every_command_loads_what_it_runs(footprints):
    assert "simulator" in footprints["simulate"]
    assert {"regression", "transmissibility"} <= footprints["train"]
    assert "scheduler" in footprints["estimate"]
    assert LAYERS - {"simulator", "regression"} <= footprints["evaluate"]


def test_bare_import_loads_no_submodule(tmp_path):
    assert _loaded("import transched\nassert transched.__version__", tmp_path) == set()


def test_config_loads_only_dataset_and_errors(tmp_path):
    assert _loaded("import transched.config", tmp_path) == {"config", "dataset", "errors"}


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'mle_fit'"):
        transched.mle_fit
