"""Golden records: the demo configs' ``--format records`` output against the
committed files in ``tests/golden/``.

Keys, key order, strings, ints and bools must match exactly; floats within
1e-12 relative or 1e-14 absolute, the last bits a different BLAS or LAPACK
build may move.  A change that moves a number on purpose rewrites the files
with

    PYTHONPATH=src python tests/test_golden.py

and names the records that moved.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from fluxbus.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = ROOT / "demos"
REL_TOL = 1e-12
ABS_TOL = 1e-14

_SIM = ["--config", str(DEMOS / "simulate.cfg"), "--circuit", str(DEMOS / "bell.circuit")]
CASES = {
    "calibrate-squid": ["calibrate", "--config", str(DEMOS / "squid.cfg")],
    "design-design": ["design", "--config", str(DEMOS / "design.cfg")],
    "reproduce-paper": ["reproduce-paper"],
    **{f"{command}-bell-{mode}": [command, *_SIM, "--mode", mode]
       for command in ("simulate", "compile") for mode in ("ideal", "physical")},
}


def _records(args: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*args, "--format", "records"])
    assert code == 0, f"{args} exited {code}"
    return out.getvalue()


def _assert_same(got, want, where: str) -> None:
    if type(want) is float and type(got) is float:
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL), f"{where}: {got!r} != {want!r}"
        return
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: {len(got)} items != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_match_golden(name):
    got = [json.loads(line) for line in _records(CASES[name]).splitlines()]
    want = [json.loads(line) for line in (GOLDEN / f"{name}.jsonl").read_text().splitlines()]
    assert len(got) == len(want), f"{name}: {len(got)} records != {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        _assert_same(g, w, f"{name}[{i}]")


def test_tolerance_is_the_only_slack():
    # A float inside the tolerance passes; a float outside it, a key out of
    # order, or an int where a float was are all refused.
    _assert_same({"a": 1.0, "b": [True, "x"]}, {"a": 1.0 + 5e-13, "b": [True, "x"]}, "ok")
    for got in ({"a": 1.0 + 5e-12, "b": 1}, {"b": 1, "a": 1.0}, {"a": 1, "b": 1}, {"a": 1.0, "b": True}):
        with pytest.raises(AssertionError):
            _assert_same(got, {"a": 1.0, "b": 1}, "bad")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args in CASES.items():
        (GOLDEN / f"{name}.jsonl").write_text(_records(args))
        print(f"wrote {GOLDEN / f'{name}.jsonl'}")
