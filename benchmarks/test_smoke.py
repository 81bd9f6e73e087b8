"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q benchmarks/test_smoke.py
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
_spec = importlib.util.spec_from_file_location("samnet_benchmark_run",
                                               BENCH_DIR / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def invoke(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0.01", "--trace", str(trace), "--tiny"])
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, lines, result = invoke(workload, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("failed_frac = 0 ") for line in lines)
    if trace and workload == "transfer-temporal-finetune":
        for phase in ("source_train", "corpus_gen", "eval", "finetune"):
            assert any(line.startswith(f"transfer.{phase}_s = ") for line in lines)


def test_corrupted_fingerprint_is_a_failure(monkeypatch):
    real = run.load_fingerprints

    def corrupted():
        fingerprints = real()
        fingerprints["tiny"]["train-canonical"]["eval_loss"] += 0.5
        return fingerprints

    monkeypatch.setattr(run, "load_fingerprints", corrupted)
    code, lines, result = invoke("train-canonical", 0)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("FAIL fingerprint eval_loss") for line in lines)


def test_corrupted_oracle_answer_is_a_failure(monkeypatch):
    real = run.brute_force_answers

    def corrupted(program, scenes, history):
        answers = real(program, scenes, history)
        answers[-1] = "not-an-answer"
        return answers

    monkeypatch.setattr(run, "brute_force_answers", corrupted)
    code, lines, result = invoke("eval-hard-slots16", 0)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("FAIL oracle mismatch") for line in lines)
    assert any(line.startswith("failed_frac = ") and not line.startswith("failed_frac = 0 ")
               for line in lines)


def test_dropped_layer_update_is_a_failure(monkeypatch):
    """Losing one layer's update moves the near-chance losses of a few Adam
    steps by about 1e-7; the update projection must still catch it."""
    real = run.training.Adam.step

    def step(self, grads):
        return real(self, [0 * g if p.name.startswith("cell.temporal.") else g
                           for p, g in zip(self.params, grads)])

    monkeypatch.setattr(run.training.Adam, "step", step)
    code, lines, result = invoke("train-canonical", 0)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("FAIL fingerprint update_projection") for line in lines)
