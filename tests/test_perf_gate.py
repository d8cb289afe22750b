"""Tests for the CI performance gate (``.github/scripts/perf_gate.py``).

The gate runs each checkout's ``perfbench/run.py``; here both checkouts
hold a stand-in ``run.py`` that prints a fixed result and, like
perfbench, stores its work fingerprint on the first run and fails any
later run whose work differs from the stored one.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "perf_gate.py"

FAKE_RUN = """
import json, sys
from pathlib import Path

here = Path(__file__).resolve().parent
spec = json.loads((here / "fake.json").read_text())
workload = sys.argv[sys.argv.index("--workload") + 1]
out = here / "out"
out.mkdir(exist_ok=True)
stored = out / f"fingerprint-{workload}-1.json"
if not stored.exists():
    stored.write_text(json.dumps(spec["work"]))
correct = json.loads(stored.read_text()) == spec["work"]
print("check failed: fingerprint differs" if not correct else "ok")
print(json.dumps({
    "correct": correct, "attempted": 4, "failed": 0 if correct else 4,
    "metrics": {name: {"value": value, "unit": "s"}
                for name, value in spec["metrics"].items()},
}))
"""

BENCHMARK = {
    "command": [sys.executable, "perfbench/run.py"],
    "workloads": [{"name": "churn"}, {"name": "e6_routers"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("perf_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root: Path, name: str, wall=1.0, rate=100.0, work=1) -> Path:
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (path / "perfbench" / "run.py").write_text(FAKE_RUN)
    (path / "perfbench" / "fake.json").write_text(json.dumps(
        {"work": work, "metrics": {"wall_s": wall, "work_per_s": rate}}
    ))
    return path


def run_gate(gate, base, head, tmp_path, monkeypatch, capsys):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    code = gate.main([str(base), str(head)])
    return code, capsys.readouterr().out, summary.read_text()


class TestPerfGate:
    def test_same_program_passes_and_writes_the_table(
        self, gate, tmp_path, monkeypatch, capsys
    ):
        base = checkout(tmp_path, "base")
        head = checkout(tmp_path, "head", wall=1.2, rate=90.0)
        code, out, summary = run_gate(gate, base, head, tmp_path, monkeypatch, capsys)
        assert code == 0, out
        assert "| `churn` | `wall_s` | 1 s | 1.2 s | 1.200 | 0.25 | yes |" in summary
        assert "| `e6_routers` | `work_per_s` |" in summary
        # Three pairs per workload, the side that goes first alternating.
        sides = [line.split()[3] for line in out.splitlines() if " pair " in line]
        assert sides[:6] == ["base:", "head:", "head:", "base:", "base:", "head:"]

    def test_metric_beyond_its_bound_fails_naming_it(
        self, gate, tmp_path, monkeypatch, capsys
    ):
        base = checkout(tmp_path, "base")
        head = checkout(tmp_path, "head", wall=1.3, rate=70.0)
        code, out, summary = run_gate(gate, base, head, tmp_path, monkeypatch, capsys)
        assert code == 1
        assert "churn: wall_s head median 1.3 vs base 1 s (+30% worse, bound 25%)" in out
        assert "e6_routers: work_per_s head median 70 vs base 100 1/s (+30% worse" in out
        assert "**Failed:**" in summary

    def test_different_work_fails_on_the_base_fingerprint(
        self, gate, tmp_path, monkeypatch, capsys
    ):
        base = checkout(tmp_path, "base")
        head = checkout(tmp_path, "head", work=2)
        code, out, _ = run_gate(gate, base, head, tmp_path, monkeypatch, capsys)
        assert code == 1
        assert "churn: a head run failed: check failed: fingerprint differs" in out
        assert "churn: head failed 12 calls, base 0" in out

    def test_a_run_without_a_result_fails(self, gate, tmp_path, monkeypatch, capsys):
        base = checkout(tmp_path, "base")
        head = checkout(tmp_path, "head")
        (head / "perfbench" / "run.py").write_text("raise SystemExit('no program')\n")
        code, out, _ = run_gate(gate, base, head, tmp_path, monkeypatch, capsys)
        assert code == 1
        assert "churn: a head run failed: exit 1: no program" in out

    def test_usage(self, gate, capsys):
        assert gate.main(["only-one"]) == 2
        assert "perf_gate.py BASE_CHECKOUT HEAD_CHECKOUT" in capsys.readouterr().err
