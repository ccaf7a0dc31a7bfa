"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that a seed fixes the inputs and that a one-second run of every
workload, traced and untraced, fails no operation and prints every metric
BENCHMARK.json names, with its unit.  Takes about two minutes.
"""
from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _inputs(name: str, seed: int, stream: int, workdir) -> list[list[str]]:
    """The first 5 blocks' command lines, with schedule files replaced by their text."""
    blocks = WORKLOADS[name].blocks(seed, stream, str(workdir))
    out = []
    for argv in itertools.chain.from_iterable(itertools.islice(blocks, 5)):
        if argv[0] == "gpe":
            with open(argv[2]) as fh:
                argv = argv[:2] + [fh.read()]
        out.append(argv)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs(name, tmp_path):
    first, again, other_seed, other_stream = (tmp_path / d for d in "abcd")
    for d in (first, again, other_seed, other_stream):
        d.mkdir()
    inputs = _inputs(name, 7, 0, first)
    assert inputs == _inputs(name, 7, 0, again)
    assert inputs != _inputs(name, 8, 0, other_seed)
    assert inputs != _inputs(name, 7, 1, other_stream)


def test_spec_names_workloads():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def _run(cwd, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_run_emits_every_metric(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # the timed mix stays where the program succeeds
    spec = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
