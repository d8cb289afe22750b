"""Tests for process-parallel sweeps (:mod:`repro.parallel`).

The contract: ``jobs > 1`` changes wall-clock only.  Result lists,
printed tables, and manifest step payloads are identical to a
sequential run, because every sweep point is a deterministic,
self-contained computation whose task description carries everything it
needs (including seeds).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.parallel import derive_seed, parallel_map, resolve_jobs


# ----------------------------------------------------------------------
# The primitives
# ----------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x


def test_parallel_map_sequential_matches_comprehension():
    assert parallel_map(_square, range(7), jobs=1) == [
        x * x for x in range(7)
    ]


def test_parallel_map_workers_preserve_order():
    assert parallel_map(_square, range(9), jobs=3) == [
        x * x for x in range(9)
    ]


def test_parallel_map_empty_and_single():
    assert parallel_map(_square, [], jobs=4) == []
    assert parallel_map(_square, [5], jobs=4) == [25]


def test_parallel_map_default_chunks_preserve_order():
    """40 tasks over 3 workers dispatch in chunks of 3, not 1."""
    assert parallel_map(_square, range(40), jobs=3) == [
        x * x for x in range(40)
    ]


def _worker_view(_):
    """Module-level task: the settings a worker sees."""
    from repro.validate import validation_level

    return validation_level(), os.environ.get("REPRO_TEST_MARKER")


def test_workers_replay_caller_settings(monkeypatch):
    """Forkserver workers inherit no parent memory: the validation
    override and environment set after import must still reach them."""
    from repro.validate import validation

    monkeypatch.setenv("REPRO_TEST_MARKER", "seen")
    with validation("cheap"):
        views = parallel_map(_worker_view, range(2), jobs=2)
    assert views == [("cheap", "seen")] * 2


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(7) == 7
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_resolve_jobs_rejects_negatives_with_the_real_contract():
    """Regression: the message used to claim "jobs must be >= 0" while
    0 actually means "all cores" — the error now states the contract."""
    with pytest.raises(
        ValueError,
        match=r"non-negative integer \(0 or None = all cores\), got -2",
    ):
        resolve_jobs(-2)


def test_derive_seed_is_deterministic_and_decorrelated():
    assert derive_seed(0, "uniform", 3) == derive_seed(0, "uniform", 3)
    assert derive_seed(0, "uniform", 3) != derive_seed(1, "uniform", 3)
    assert derive_seed(0, "uniform", 3) != derive_seed(0, "hotspot", 3)
    assert 0 <= derive_seed(42, "x") < 2**64


def test_derive_seed_rejects_memory_address_reprs():
    """Components without a value ``repr`` (``<object at 0x...>``) would
    make the "stable" seed differ on every run; they must fail loudly."""
    with pytest.raises(ValueError, match="memory-address repr"):
        derive_seed(0, object())
    with pytest.raises(ValueError, match="memory-address repr"):
        derive_seed(0, "uniform", 3, object())
    # value-based reprs of the same shapes still work
    assert derive_seed(0, "uniform", (3, 4)) == derive_seed(0, "uniform", (3, 4))


# ----------------------------------------------------------------------
# Worker-exception telemetry salvage
# ----------------------------------------------------------------------
@pytest.fixture
def observing():
    """Observability on for the test, fully reset around it."""
    from repro import obs

    obs.reset()
    obs.enable()
    yield
    obs.reset()
    obs.disable()


def _bump_or_explode(x: int) -> int:
    """Module-level task: instrument, then fail on marked inputs."""
    from repro import obs

    obs.counter("test.parallel.completed").inc()
    if x < 0:
        raise RuntimeError(f"task {x} exploded")
    return x * x


def test_worker_exception_still_salvages_completed_telemetry(observing):
    """Regression: a raising task used to discard *all* worker telemetry
    (the obs path went through ``pool.map``).  Completed tasks' payloads
    must be absorbed before the exception propagates, and the lost
    payloads counted on ``obs.workers_failed``."""
    from repro import obs

    with pytest.raises(RuntimeError, match="task -1 exploded"):
        parallel_map(_bump_or_explode, [1, 2, -1, 3, 4, 5], jobs=2)
    # the five tasks that completed shipped their counters home
    assert obs.counter("test.parallel.completed").value == 5
    assert obs.counter("obs.workers_failed").value == 1


def test_worker_exception_raises_first_in_task_order(observing):
    from repro import obs

    with pytest.raises(RuntimeError, match="task -7 exploded"):
        parallel_map(_bump_or_explode, [1, -7, 2, -9, 3], jobs=2)
    assert obs.counter("test.parallel.completed").value == 3
    assert obs.counter("obs.workers_failed").value == 2


# ----------------------------------------------------------------------
# Experiment-level identity: jobs=N reproduces jobs=1 exactly
# ----------------------------------------------------------------------
def test_r1_sweep_parallel_identity():
    from repro.experiments.r1_price_of_fairness import sweep

    assert sweep(ks=(1, 2, 4), jobs=2) == sweep(ks=(1, 2, 4), jobs=1)


def test_r1_random_bound_parallel_identity():
    from repro.experiments.r1_price_of_fairness import random_bound_check

    sequential = random_bound_check(n=2, num_flows=8, seeds=range(2), jobs=1)
    parallel = random_bound_check(n=2, num_flows=8, seeds=range(2), jobs=2)
    assert parallel == sequential


def test_r2_starvation_parallel_identity():
    from repro.experiments.r2_starvation import starvation_sweep

    sequential = starvation_sweep(
        sizes=(3, 4), check_local_optimality=False, jobs=1
    )
    parallel = starvation_sweep(
        sizes=(3, 4), check_local_optimality=False, jobs=2
    )
    assert parallel == sequential
    # --jobs is harmless on the batched path, which solves in-process
    batched = [
        starvation_sweep(
            sizes=(3, 4), check_local_optimality=False, jobs=jobs,
            backend="batched",
        )
        for jobs in (1, 2)
    ]
    assert batched[1] == batched[0]


def test_r3_sweep_parallel_identity():
    from repro.experiments.r3_doom_switch import sweep

    points = ((5, 1), (7, 1))
    assert sweep(points=points, jobs=2) == sweep(points=points, jobs=1)
    assert sweep(points=points, jobs=2, backend="batched") == sweep(
        points=points, jobs=1, backend="batched"
    )


def test_convergence_stochastic_parallel_identity():
    from repro.experiments.convergence import stochastic_instances

    sequential = stochastic_instances(
        n=2, num_flows=10, seeds=range(2), jobs=1
    )
    parallel = stochastic_instances(
        n=2, num_flows=10, seeds=range(2), jobs=2
    )
    assert parallel == sequential


def test_oversubscription_parallel_identity():
    from fractions import Fraction

    from repro.experiments.oversubscription import sweep

    capacities = (Fraction(1), Fraction(1, 2))
    sequential = sweep(n=2, capacities=capacities, num_flows=8, jobs=1)
    parallel = sweep(n=2, capacities=capacities, num_flows=8, jobs=2)
    assert parallel == sequential


# ----------------------------------------------------------------------
# CLI: --jobs leaves tables and manifest payloads unchanged
# ----------------------------------------------------------------------
def _run_cli(argv, capsys):
    from repro.cli import main

    assert main(argv) == 0
    return capsys.readouterr().out


def test_cli_jobs_output_identical(capsys):
    sequential = _run_cli(["run", "e2", "--ks", "1,2"], capsys)
    parallel = _run_cli(["run", "e2", "--ks", "1,2", "--jobs", "2"], capsys)
    assert parallel == sequential


def test_cli_jobs_manifest_steps_identical(tmp_path, capsys):
    seq_path = tmp_path / "seq.json"
    par_path = tmp_path / "par.json"
    _run_cli(["run", "e2", "--ks", "1,2", "--manifest", str(seq_path)], capsys)
    _run_cli(
        ["run", "e2", "--ks", "1,2", "--jobs", "2", "--manifest", str(par_path)],
        capsys,
    )
    sequential = json.loads(seq_path.read_text())
    parallel = json.loads(par_path.read_text())

    # Step payloads — names, statuses, captured stdout — are identical;
    # only timings may differ.
    def payload(manifest):
        return [
            (step["name"], step["status"], step["output"])
            for step in manifest["steps"]
        ]

    assert payload(parallel) == payload(sequential)

    # A default sequential manifest does not mention the knob at all
    # (byte-compatible with manifests from before --jobs existed); a
    # parallel one records it.
    assert "jobs" not in sequential["params"]
    assert parallel["params"]["jobs"] == 2
