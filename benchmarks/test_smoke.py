"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py

Every workload runs untraced and traced; the printed metrics must match
BENCHMARK.json by name and unit, and a corrupted output file must be
counted as a failed run.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny(name, trace, seed=5):
    return run.run_benchmark(name, seed, 0.01, trace, scale="tiny")


@pytest.fixture(scope="module")
def results():
    return {(name, trace): tiny(name, trace) for name in NAMES for trace in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_printed_with_its_unit(results, name, trace):
    lines, result = results[name, trace]
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [e["name"] for e in listed]
    for entry in listed:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert any(re.fullmatch(rf"{re.escape(entry['name'])} \S+ {re.escape(entry['unit'])}",
                                line) for line in lines), entry["name"]
    assert any(line.startswith("failed_frac 0 ratio") for line in lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + run.MIN_REPS * (1 + trace)
    assert json.loads(json.dumps(result)) == result


def test_every_layer_metric_is_measured_on_some_workload(results):
    always_zero = {"failed_frac"}
    for entry in SPEC["per_layer"]:
        if entry["name"] in always_zero:
            continue
        values = [results[name, 1][1]["metrics"][entry["name"]]["value"] for name in NAMES]
        assert any(values), f"{entry['name']} is zero on every workload"


def _corrupt_last_digit(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i in range(len(lines) - 1, -1, -1):
        digits = [k for k, c in enumerate(lines[i]) if c.isdigit()]
        if digits:
            k = digits[-1]
            lines[i] = lines[i][:k] + ("1" if lines[i][k] == "0" else "0") + lines[i][k + 1:]
            break
    path.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("which", ["first", "rep"])
@pytest.mark.parametrize("name", NAMES)
def test_corrupted_output_counts_as_failure(monkeypatch, name, which):
    """Corrupt the last-step file of the first run, or of every later run."""
    import workloads
    original = workloads.Prepared.call

    def corrupting(self, config):
        report = original(self, config)
        if config.output_dir.name == which:
            last = sorted(config.output_dir.glob(f"*_{self.steps}.*"))[0]
            _corrupt_last_digit(last)
        return report

    monkeypatch.setattr(workloads.Prepared, "call", corrupting)
    lines, result = tiny(name, 0)
    seeded = result["attempted"] - 1
    expected = seeded if which == "first" else seeded - 1
    assert result["failed"] == expected
    assert not result["correct"]
    assert any(line.startswith("FAILED:") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", NAMES[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
