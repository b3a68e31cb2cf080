"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "families": {
        "schubert": ((3, 1, 3), (4, 1, 6)), "schubert_words": (1, 10), "schubert_dreams": (1, 10),
        "grothendieck": ((3, 1, 1, 3, True), (4, 1, 2, 4, False)),
        "schur": 1, "schur_size": (2, 3), "schur_vars": 3,
        "slide": 1, "glide": 1, "comp_size": 3, "comp_parts": 3,
        "backstable": 1, "backstable_n": 3,
    },
    "complexes": {
        "triangular": ((4, 1, (1, 512)),), "triangular_words": 20,
        "random": 1, "random_length": (6, 7), "random_band": (1, 512),
        "tableau": 1, "tableau_size": 3, "tableau_vars": 3,
        "decompose": 1, "wordset": 1,
    },
    "bijections": {"bands": ((2, 40, 1, 1),), "n": (3, 4), "max_length": 4, "max_k": 2},
    "cli": {"repeats": 1},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, sizes in TINY.items():
        monkeypatch.setitem(workloads.SIZES, name, sizes)
    monkeypatch.setattr(run, "MIN_TASKS", 5)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "STARTUP_REPEATS", 1)
    monkeypatch.setattr(run, "RESULTS", tmp_path)


def result(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def declared(kind):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    out = result(capsys, workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    units = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in out["metrics"].items()} == units
    assert all(isinstance(m["value"], float) for m in out["metrics"].values())
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1


def failed_ratio(workload):
    record = json.loads((run.RESULTS / f"{workload}-seed3-trace0.json").read_text())
    return record["failed_ratio"]


def test_wrong_expected_answer_raises_failed_ratio(tiny, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "hook_content", lambda shape, n: -1)
    out = result(capsys, "families", 0)
    assert not out["correct"] and 0 < out["failed"] <= out["attempted"]
    assert failed_ratio("families") > 0


def test_wrong_cli_answer_raises_failed_ratio(tiny, capsys, monkeypatch):
    cases = list(workloads.CLI_CASES)
    cases[1] = (cases[1][0], "ints", (0, 3, 0, 1, 1))
    monkeypatch.setattr(workloads, "CLI_CASES", tuple(cases))
    out = result(capsys, "cli", 0)
    assert not out["correct"] and out["failed"] == 1
    assert failed_ratio("cli") > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "families",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
