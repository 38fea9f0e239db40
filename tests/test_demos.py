"""Every demo script and ``python -m fluxbus`` run from a source checkout and
print their reports, and every README command on the demo configs exits 0."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fluxbus.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*.py"))


def readme_config_commands() -> list:
    """The argument lists of the README's command-line block that read a
    config file."""
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("fluxbus ") and "--config" in line]


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # run in tmp_path: demo 01 saves its figure to the working directory; a
    # numpy RuntimeWarning is an error, and nothing else reaches stderr
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error::RuntimeWarning")
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert done.stderr == ""


def test_all_four_readme_config_commands_found():
    assert [args[0] for args in readme_config_commands()] == ["calibrate", "design", "simulate", "compile"]


@pytest.mark.parametrize("args", readme_config_commands(), ids=lambda args: args[0])
def test_readme_command_runs(args, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert out.strip() and err == ""


def test_module_entry_point_runs_from_source():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "fluxbus", "reproduce-paper", "--format", "records"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *rows, summary = (json.loads(line) for line in done.stdout.splitlines())
    assert len(rows) == 7 and summary == {"overall": True, "rows": 7}
