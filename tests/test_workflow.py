"""The CI workflow runs the tier-1 command that ROADMAP.md names, every
script, config, console command and extra it calls exists, and its
``fluxbus`` steps exit 0."""

import re
import shlex
from pathlib import Path

from fluxbus.cli import main

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
PYPROJECT = (ROOT / "pyproject.toml").read_text()


def steps() -> dict:
    """Each workflow step's ``run`` command, keyed by the step's name."""
    runs, name = {}, None
    for line in WORKFLOW.splitlines():
        key, _, value = line.strip().removeprefix("- ").partition(":")
        if key == "name":
            name = value.strip()
        elif key == "run":
            runs[name] = value.strip()
    return runs


def test_tier1_step_runs_the_roadmap_command():
    (verify,) = re.findall(r"^\*\*Tier-1 verify:\*\* `(.+)`$", (ROOT / "ROADMAP.md").read_text(), re.M)
    assert steps()["Tier-1 tests"] == verify


def test_every_called_script_exists():
    runs = steps()
    for command in runs.values():
        words = shlex.split(command)
        for word in words:
            if word.endswith((".py", ".cfg")):
                assert (ROOT / word).is_file(), word
        if words[0] == "fluxbus":
            assert 'fluxbus = "fluxbus.cli:main"' in PYPROJECT
    assert "pip install -e '.[test]'" in runs.values() and re.search(r"^test = \[", PYPROJECT, re.M)


def test_every_fluxbus_step_runs(monkeypatch, capsys):
    # Every subcommand runs.  The design step checks the bus arithmetic of
    # the point whose J the reproduction table reports.
    monkeypatch.chdir(ROOT)
    commands = [shlex.split(run)[1:] for run in steps().values() if run.startswith("fluxbus ")]
    assert [args[0] for args in commands] == ["reproduce-paper", "design", "calibrate", "simulate", "compile"]
    for args in commands:
        assert main(args) == 0
    assert capsys.readouterr().err == ""


def test_oldest_pins_are_the_pyproject_floors():
    pins = re.findall(r"'(\w+)==([\d.]+)\.\*'", steps()["Pin the oldest supported numpy and scipy"])
    floors = re.findall(r'"(\w+)>=([\d.]+)"', PYPROJECT.split("dependencies = [", 1)[1].split("]", 1)[0])
    assert pins == floors == [("numpy", "1.25"), ("scipy", "1.10")]
