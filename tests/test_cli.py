"""Tests for the command-line driver."""

import pytest

import repro.cli as cli
from repro.cli import DESCRIPTIONS, EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_options(self):
        args = build_parser().parse_args(["run", "e2", "--ks", "1,2"])
        assert args.command == "run"
        assert args.experiment == "e2"
        assert args.ks == "1,2"

    def test_every_experiment_has_description(self):
        assert set(EXPERIMENTS) == set(DESCRIPTIONS)

    def test_resilience_flags(self):
        args = build_parser().parse_args(
            [
                "run", "all",
                "--timeout", "30",
                "--retries", "2",
                "--backoff", "0.1",
                "--manifest", "sweep.json",
            ]
        )
        assert args.timeout == 30.0
        assert args.retries == 2
        assert args.backoff == 0.1
        assert args.manifest == "sweep.json"
        assert args.keep_going is True  # the default

    def test_fail_fast_flag(self):
        args = build_parser().parse_args(["run", "all", "--fail-fast"])
        assert args.keep_going is False

    def test_keep_going_and_fail_fast_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "all", "--keep-going", "--fail-fast"]
            )

    def test_resume_flag(self):
        args = build_parser().parse_args(["run", "all", "--resume", "m.json"])
        assert args.resume == "m.json"


class TestMain:
    def test_list_prints_all_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "e1" in capsys.readouterr().out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_e1(self, capsys):
        assert main(["run", "e1"]) == 0
        out = capsys.readouterr().out
        assert "matches paper: True" in out

    def test_run_e2_with_custom_ks(self, capsys):
        assert main(["run", "e2", "--ks", "1,3"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 3.4" in out
        assert "3/4" in out  # k = 1 ratio

    def test_run_e3_small(self, capsys):
        assert main(["run", "e3", "--sizes", "3"]) == 0
        out = capsys.readouterr().out
        assert "False" in out  # unsplittable infeasible

    def test_run_e4_small(self, capsys):
        assert main(["run", "e4", "--sizes", "3"]) == 0
        out = capsys.readouterr().out
        assert "1/3" in out

    def test_run_e4_certifies_at_every_size(self, capsys, monkeypatch):
        """Large quotient sweeps no longer skip the bottleneck certificate."""
        from repro.experiments import r2_starvation

        real = r2_starvation.starvation_sweep
        seen = {}

        def spy(sizes, **kwargs):
            seen.update(kwargs)
            return real([3], **kwargs)

        monkeypatch.setattr(r2_starvation, "starvation_sweep", spy)
        assert main(["run", "e4", "--sizes", "64", "--backend", "quotient"]) == 0
        assert seen.get("certify", True) is True

    def test_run_is_case_insensitive(self, capsys):
        assert main(["run", "E1"]) == 0

    def test_run_churn_window_zero_resolves_per_event(self, capsys):
        """``--window 0`` means re-solve per event, not the default
        window: the batched row consults as often as streaming."""
        argv = ["run", "churn", "--n", "2", "--rate", "20", "--horizon", "1"]
        assert main(argv + ["--window", "0"]) == 0
        consults = {}
        for line in capsys.readouterr().out.splitlines():
            fields = line.split()
            if fields and fields[0] in ("streaming", "batched"):
                consults[fields[0]] = int(fields[-2]) + int(fields[-1])
        assert consults["batched"] == consults["streaming"]
        # The default window batches, so it consults less often.
        assert main(argv) == 0
        for line in capsys.readouterr().out.splitlines():
            fields = line.split()
            if fields and fields[0] == "batched":
                assert int(fields[-2]) + int(fields[-1]) < consults["streaming"]


class TestArgumentBounds:
    """Out-of-range sizes are usage errors, never silently defaulted."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "churn", "--n", "0"],
            ["run", "e6", "--n", "0"],
            ["profile", "e6", "--n", "0"],
            ["run", "churn", "--rate", "-1"],
            ["run", "churn", "--horizon", "0"],
            ["run", "churn", "--horizon", "-0.5"],
            ["run", "churn", "--pods", "0"],
            ["run", "churn", "--jobs", "-1"],
            ["profile", "e4", "--jobs", "-1"],
            ["fuzz", "--seeds", "-2"],
            ["fuzz", "--seeds", "0"],
        ],
    )
    def test_rejected_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err

    def test_rate_zero_is_a_usage_error(self, capsys):
        """A Poisson workload needs a positive rate: ``--rate 0`` used
        to run the default rate 100; now it errors before any work."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "churn", "--n", "2", "--rate", "0"])
        assert exc.value.code == 2
        assert "argument --rate: must be > 0, got 0" in capsys.readouterr().err

    def test_zero_window_and_jobs_reach_churn(self, capsys, monkeypatch):
        """0 is a real ``--window`` and ``--jobs`` (all cores); explicit
        values pass through unchanged."""
        from repro.experiments import churn

        seen = {}
        monkeypatch.setattr(
            churn, "churn_comparison", lambda **kw: seen.update(kw) or []
        )
        argv = ["run", "churn", "--n", "2", "--rate", "0.5",
                "--horizon", "0.25", "--pods", "2", "--window", "0",
                "--jobs", "0"]
        assert main(argv) == 0
        assert seen == {"n": 2, "rate": 0.5, "horizon": 0.25,
                        "batch_window": 0.0, "pods": 2, "jobs": 0}

    @pytest.mark.parametrize("names", ["bogus", "heap,bogus", "batched", ","])
    def test_fuzz_rejects_unknown_backends(self, names, capsys, monkeypatch):
        """An unknown backend is a usage error before any seed runs,
        not a traceback at the first solve."""
        from repro import chaos

        monkeypatch.setattr(chaos, "fuzz", lambda *a, **kw: pytest.fail("ran"))
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--seeds", "1", "--backends", names])
        assert exc.value.code == 2
        assert "argument --backends: expected backends from" in (
            capsys.readouterr().err
        )

    def test_bench_subcommand_is_gone(self, capsys):
        """Performance is measured by perfbench; ``repro bench`` is not
        a command any more."""
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_fuzz_backends_reach_the_harness(self, monkeypatch):
        from repro import chaos

        seen = {}
        monkeypatch.setattr(
            chaos, "fuzz",
            lambda seeds, **kw: seen.update(kw, seeds=seeds)
            or chaos.FuzzReport(seeds=seeds, instances=0, checks=0, failures=[]),
        )
        assert main(["fuzz", "--seeds", "2", "--backends", " heap, auto"]) == 0
        assert seen["seeds"] == 2 and seen["backends"] == ["heap", "auto"]


@pytest.fixture
def fake_experiments(monkeypatch):
    """Three tiny experiments, the middle one broken."""
    ran = []

    def ok(name):
        def experiment(args):
            ran.append(name)
            print(f"{name} result table")

        return experiment

    def bad(args):
        ran.append("e_bad")
        raise RuntimeError("solver exploded")

    fakes = {"e_ok1": ok("e_ok1"), "e_bad": bad, "e_ok2": ok("e_ok2")}
    monkeypatch.setattr(cli, "EXPERIMENTS", fakes)
    return ran


class TestResilientRun:
    def test_run_all_keeps_going_and_exits_nonzero(
        self, capsys, fake_experiments
    ):
        assert main(["run", "all"]) == 1
        captured = capsys.readouterr()
        # the failure did not stop the sweep
        assert fake_experiments == ["e_ok1", "e_bad", "e_ok2"]
        assert "e_ok1 result table" in captured.out
        assert "e_ok2 result table" in captured.out
        # pass/fail summary table plus the error on stderr
        assert "run summary" in captured.out
        assert "FAILED" in captured.out
        assert "solver exploded" in captured.err

    def test_fail_fast_stops_the_sweep(self, capsys, fake_experiments):
        assert main(["run", "all", "--fail-fast"]) == 1
        assert fake_experiments == ["e_ok1", "e_bad"]

    def test_all_green_sweep_exits_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "EXPERIMENTS", {"e_a": lambda args: print("fine")}
        )
        assert main(["run", "all"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_single_timeout_flag_engages_runner(self, capsys, monkeypatch):
        import time

        monkeypatch.setattr(
            cli, "EXPERIMENTS", {"e_hang": lambda args: time.sleep(5)}
        )
        assert main(["run", "e_hang", "--timeout", "0.1"]) == 1
        assert "timeout" in capsys.readouterr().err

    def test_manifest_then_resume_is_byte_identical(self, capsys, tmp_path):
        manifest = str(tmp_path / "e1.json")
        assert main(["run", "e1", "--manifest", manifest]) == 0
        first = capsys.readouterr().out
        assert "matches paper: True" in first

        assert main(["run", "e1", "--resume", manifest]) == 0
        assert capsys.readouterr().out == first


@pytest.fixture
def obs_off():
    """Leave the process-wide observability switch off after the test."""
    from repro import obs

    yield
    obs.reset()
    obs.disable()


class TestProfileCommand:
    def test_parser_accepts_profile_options(self):
        args = build_parser().parse_args(
            ["profile", "e1", "--trace", "t.jsonl", "--no-memory"]
        )
        assert args.command == "profile"
        assert args.experiment == "e1"
        assert args.trace == "t.jsonl"
        assert args.memory is False

    def test_profile_prints_span_tree_and_counters(self, capsys, obs_off):
        assert main(["profile", "e1", "--no-memory"]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "profile:e1" in out
        assert "maxmin.water_fill" in out
        assert "maxmin.rounds" in out

    def test_profile_writes_trace_jsonl(self, capsys, obs_off, tmp_path):
        from repro.io.serialize import read_jsonl

        trace = str(tmp_path / "e1.jsonl")
        assert main(["profile", "e1", "--no-memory", "--trace", trace]) == 0
        documents = read_jsonl(trace)
        assert documents[0]["name"] == "profile:e1"

    def test_profile_leaves_observability_off(self, capsys, obs_off):
        from repro import obs

        assert main(["profile", "e1", "--no-memory"]) == 0
        assert obs.enabled() is False

    def test_profile_unknown_experiment_errors(self, capsys):
        assert main(["profile", "e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestStatsCommand:
    def test_stats_on_traced_manifest(
        self, capsys, obs_off, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_OBS", "0")  # manifest flag set explicitly
        from repro import obs

        obs.reset()
        obs.enable()
        manifest = str(tmp_path / "e1.json")
        assert main(["run", "e1", "--manifest", manifest]) == 0
        obs.disable()
        capsys.readouterr()

        assert main(["stats", manifest]) == 0
        out = capsys.readouterr().out
        assert "e1" in out
        assert "maxmin.rounds" in out

    def test_stats_on_untraced_manifest_hints(self, capsys, tmp_path):
        manifest = str(tmp_path / "e1.json")
        assert main(["run", "e1", "--manifest", manifest]) == 0
        capsys.readouterr()

        assert main(["stats", manifest]) == 0
        assert "REPRO_OBS=1" in capsys.readouterr().out

    def test_stats_missing_manifest_errors(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "nope.json")]) == 2


@pytest.fixture
def quarantine_dir(monkeypatch, tmp_path):
    directory = tmp_path / "quarantine"
    monkeypatch.setenv("REPRO_QUARANTINE_DIR", str(directory))
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)
    from repro.validate import set_validation_level

    set_validation_level(None)
    yield directory
    set_validation_level(None)


class TestValidateFlag:
    def test_validate_flag_sets_level(self, capsys, quarantine_dir):
        from repro.validate import validation_level

        assert main(["--validate", "full", "list"]) == 0
        assert validation_level() == "full"

    def test_parser_rejects_unknown_level(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--validate", "paranoid", "list"])


class TestFuzzCommand:
    def test_clean_fuzz_exits_zero(self, capsys, quarantine_dir):
        code = main(["fuzz", "--seeds", "3", "--no-churn"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failure(s)" in out

    def test_corrupt_backend_exits_nonzero(
        self, capsys, quarantine_dir, monkeypatch
    ):
        import repro.core.fastmaxmin as fastmaxmin_module

        original = fastmaxmin_module.max_min_fair_fast

        def skewed(routing, capacities):
            allocation = original(routing, capacities)
            rates = allocation.rates()
            victim = next(iter(rates))
            rates[victim] = rates[victim] * 3 + 0.25
            return type(allocation)(rates)

        monkeypatch.setattr(fastmaxmin_module, "max_min_fair_fast", skewed)
        code = main(
            ["fuzz", "--seeds", "2", "--backends", "heap", "--no-churn"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "heap" in captured.err
        assert list(quarantine_dir.glob("*.json"))


class TestReplayCommand:
    def test_missing_bundle_exits_two(self, capsys, quarantine_dir):
        code = main(["replay", str(quarantine_dir / "nope.json")])
        assert code == 2
        assert "cannot load bundle" in capsys.readouterr().err

    def test_healthy_bundle_exits_zero(self, capsys, quarantine_dir, clos2):
        from repro.quarantine import write_bundle
        from tests.helpers import random_flows, random_routing

        flows = random_flows(clos2, 5, seed=1)
        routing = random_routing(clos2, flows, seed=1)
        path = write_bundle(
            routing, clos2.graph.capacities(), "falsealarm",
            "reference", True,
        )
        code = main(["replay", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "does not reproduce" in out

    def test_reproducing_bundle_exits_one_and_minimizes(
        self, capsys, quarantine_dir, clos2, monkeypatch
    ):
        import repro.core.vectorized as vectorized_module
        from repro.validate import validation

        original = vectorized_module.waterfill

        def doubled(compiled, caps):
            with validation("off"):
                rates = original(compiled, caps)
            return rates * 2.0

        monkeypatch.setattr(vectorized_module, "waterfill", doubled)
        from repro.core.solve import solve_max_min
        from repro.validate import validation
        from tests.helpers import random_flows, random_routing

        flows = random_flows(clos2, 5, seed=8)
        routing = random_routing(clos2, flows, seed=8)
        with validation("full"):
            solve_max_min(
                routing, clos2.graph.capacities(),
                backend="auto", exact=False,
            )
        bundles = list(quarantine_dir.glob("q-certificate-*.json"))
        assert len(bundles) == 1
        code = main(["replay", str(bundles[0])])
        out = capsys.readouterr().out
        assert code == 1
        assert "still fails" in out
        assert "minimized to 1 flow(s)" in out
