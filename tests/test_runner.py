"""The experiment runner: timeouts, keep-going, the run manifest."""

import time

import pytest

from repro.errors import ExperimentError, StepTimeoutError
from repro.io.serialize import read_json, write_json_atomic
from repro.runner import (
    FAILED,
    OK,
    TIMEOUT,
    ResilientRunner,
    RunManifest,
    StepRecord,
    wall_clock_limit,
)


class TestRunStep:
    def test_success(self):
        runner = ResilientRunner()
        runner.run({"ok": lambda: 42})
        (record,) = runner.records
        assert record.status == OK
        assert record.error is None
        assert runner.exit_code() == 0

    def test_timeout_is_terminal(self):
        calls = []

        def hang():
            calls.append(1)
            time.sleep(5)

        with pytest.raises(StepTimeoutError) as excinfo:
            with wall_clock_limit(0.1, "hang"):
                hang()
        assert excinfo.value.step == "hang"
        assert calls == [1]


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = RunManifest(path, experiments=["e1", "e2"], params={"n": 3})
        manifest.steps = {
            "e1": StepRecord("e1", OK, duration=0.5),
            "e2": StepRecord("e2", FAILED, error="boom"),
        }
        manifest.save()

        loaded = RunManifest.load(path)
        assert loaded.experiments == ["e1", "e2"]
        assert loaded.params == {"n": 3}
        assert loaded.sha == manifest.sha
        assert loaded.steps["e1"].status == OK
        assert loaded.steps["e1"].duration == 0.5
        assert loaded.steps["e2"].status == FAILED
        assert loaded.steps["e2"].error == "boom"

    def test_written_once_when_the_sweep_ends(self, tmp_path):
        path = tmp_path / "manifest.json"
        seen = []

        def step():
            seen.append(path.exists())

        runner = ResilientRunner(manifest=RunManifest(str(path)))
        runner.run({"s1": step, "s2": step})
        assert seen == [False, False]
        document = read_json(str(path))
        assert "seed" not in document
        assert [s["status"] for s in document["steps"]] == [OK, OK]

    def test_foreign_document_rejected(self, tmp_path):
        path = str(tmp_path / "other.json")
        write_json_atomic(path, {"format": "something-else"})
        with pytest.raises(ExperimentError):
            RunManifest.load(path)


class TestResilientRunner:
    def test_keep_going_runs_everything_and_reports(self):
        ran = []

        def ok(name):
            def step():
                ran.append(name)
                print(f"{name} output")

            return step

        def bad():
            ran.append("bad")
            raise RuntimeError("exploded")

        runner = ResilientRunner()
        runner.run({"a": ok("a"), "bad": bad, "b": ok("b")})
        assert ran == ["a", "bad", "b"]
        assert runner.exit_code() == 1
        assert [r.name for r in runner.failed_steps()] == ["bad"]
        table = runner.summary_table()
        assert "FAILED" in table and "exploded" in table
        assert "attempts" not in table

    def test_fail_fast_stops_at_first_failure(self):
        ran = []

        def bad():
            raise RuntimeError("nope")

        runner = ResilientRunner(keep_going=False)
        runner.run({"bad": bad, "after": lambda: ran.append("after")})
        assert ran == []
        assert len(runner.records) == 1

    def test_timeout_recorded(self):
        runner = ResilientRunner(timeout=0.1)
        runner.run({"hang": lambda: time.sleep(5)})
        assert runner.records[0].status == TIMEOUT
        assert runner.exit_code() == 1


class TestErrorTypes:
    """``StepRecord.error_type`` names the exception class behind a
    failure so manifest post-mortems can distinguish a certificate
    rejection from an infrastructure crash without parsing messages."""

    def test_failed_step_records_exception_class(self):
        def bad():
            raise ValueError("exploded")

        runner = ResilientRunner()
        runner.run({"bad": bad})
        record = runner.records[0]
        assert record.status == FAILED
        assert record.error_type == "ValueError"

    def test_timeout_records_exception_class(self):
        runner = ResilientRunner(timeout=0.1)
        runner.run({"hang": lambda: time.sleep(5)})
        record = runner.records[0]
        assert record.status == TIMEOUT
        assert record.error_type == "StepTimeoutError"

    def test_ok_step_omits_error_type_from_manifest(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = RunManifest(path)
        runner = ResilientRunner(manifest=manifest)
        runner.run({"good": lambda: 1})
        saved = manifest.steps["good"].to_dict()
        assert "error_type" not in saved  # byte-compat with old manifests

    def test_error_type_round_trips_through_manifest(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = RunManifest(path)
        runner = ResilientRunner(manifest=manifest)
        runner.run({"bad": lambda: (_ for _ in ()).throw(KeyError("x"))})
        reloaded = RunManifest.load(path)
        assert reloaded.steps["bad"].error_type == "KeyError"

    def test_certificate_error_is_terminal(self):
        from repro.errors import CertificateError

        calls = []

        def rejected():
            calls.append(1)
            raise CertificateError("test.step", ["link overloaded"])

        runner = ResilientRunner()
        runner.run({"rejected": rejected})
        record = runner.records[0]
        assert len(calls) == 1
        assert record.status == FAILED
        assert record.error_type == "CertificateError"

    def test_keep_going_continues_past_certificate_failure(self):
        from repro.errors import CertificateError

        ran = []

        def rejected():
            raise CertificateError("test.step", ["starved flow"])

        runner = ResilientRunner()
        runner.run(
            {"rejected": rejected, "after": lambda: ran.append("after")}
        )
        assert ran == ["after"]
        assert runner.exit_code() == 1
        assert runner.records[0].error_type == "CertificateError"
        assert runner.records[1].status == OK
