"""The benchmark's workloads: what each one runs, checks and counts.

Each workload turns the run's seed into one or more *instances* during
set-up, then the measuring loop times ``call(instance)`` — one call of a
public entry point of ``repro`` with its default backend and engine
(e4's documented ``backend="quotient"`` is the one exception).  Outside
the timed region ``check`` compares the result with the exact oracle or
the paper's bounds, ``work`` counts the units done and ``fingerprint``
records the input sizes and the deterministic counts the program
returned.

The churn and e6 workloads draw several instances from one seed and
rotate through them, so a run's figures average over instance sizes
instead of depending on one Poisson draw.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List

import repro.core.topology as topology
import repro.experiments.churn as churn_exp
import repro.experiments.ecmp_simulation as ecmp_exp
import repro.experiments.r2_starvation as r2_exp
import repro.workloads.adversarial as adversarial
import repro.workloads.stochastic as stochastic

#: Relative tolerance on delivered work (the simulators' own WORK_TOL).
WORK_TOL = 1e-9


def instance_seeds(seed: int, count: int) -> List[int]:
    """``count`` instance seeds generated from the run's seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


class Churn:
    """``repro run churn`` at a size where the float solvers dominate."""

    name = "churn"
    unit = "flow events"
    instances = 12
    n, rate, horizon, batch_window = 4, 10.0, 30.0, 0.05

    def setup(self, seed: int) -> List[Dict]:
        network = topology.ClosNetwork(self.n)
        return [
            {
                "seed": s,
                # The experiment draws this same sequence itself; the copy
                # here is only for the output check.
                "jobs": stochastic.churn_workload(
                    network, rate=self.rate, horizon=self.horizon, seed=s
                ),
            }
            for s in instance_seeds(seed, self.instances)
        ]

    def call(self, instance):
        return churn_exp.churn_comparison(
            n=self.n, rate=self.rate, horizon=self.horizon,
            batch_window=self.batch_window, seed=instance["seed"],
        )

    def check(self, instance, rows) -> List[str]:
        jobs = instance["jobs"]
        total = math.fsum(job.size for job in jobs)
        errors = []
        if not rows:
            errors.append("no configurations ran")
        for row in rows:
            # Every job of the sequence completes in every config, so all
            # configs complete the same job set.
            if row.jobs != len(jobs) or row.completed != len(jobs):
                errors.append(
                    f"{row.config}: {row.completed} of {row.jobs} jobs "
                    f"completed, expected {len(jobs)}"
                )
            if not abs(row.work_done - total) <= WORK_TOL * total:
                errors.append(
                    f"{row.config}: work_done {row.work_done!r} != {total!r}"
                )
        return errors

    def work(self, instance, rows) -> int:
        return sum(row.flow_events for row in rows)

    def fingerprint(self, instance, rows) -> Dict:
        # Only the work done: solver internals such as the streaming
        # patched/full split may change without the work changing.
        return {
            "n": self.n,
            "jobs": len(instance["jobs"]),
            "configs": sorted(row.config for row in rows),
            "rows": [[row.config, row.flow_events, row.completed] for row in rows],
        }

    def layer_metrics(self, instance, rows) -> Dict:
        """The streaming solver's patched share, as the program reports it."""
        patched = sum(row.patched or 0 for row in rows)
        full = sum(row.fullsolve or 0 for row in rows)
        return {"core.streaming.patched_frac": patched / (patched + full) if patched + full else 0.0}


class E4Quotient:
    """``repro run e4 --sizes 24 --backend quotient``: exact arithmetic only."""

    name = "e4_quotient"
    unit = "flows"
    instances = 1
    n = 24

    def setup(self, seed: int) -> List[Dict]:
        # The paper's construction does not depend on the seed.
        instance = adversarial.theorem_4_3(self.n)
        return [
            {
                "flows": len(instance.flows),
                "links": len(instance.clos.graph.capacities()),
            }
        ]

    def call(self, instance):
        return r2_exp.starvation_sweep(
            [self.n], check_local_optimality=False, backend="quotient",
            certify=True,
        )

    def check(self, instance, rows) -> List[str]:
        if len(rows) != 1 or rows[0].n != self.n:
            return [f"expected one row for n={self.n}, got {rows!r}"]
        (row,) = rows
        errors = []
        if not (
            isinstance(row.starvation_factor, Fraction)
            and row.starvation_factor == Fraction(1, self.n)
        ):
            errors.append(f"starvation factor {row.starvation_factor!r} != 1/{self.n}")
        if not row.per_type_rates_match:
            errors.append("per-type rates differ from Lemmas 4.4/4.6")
        if not row.bottleneck_certified:
            errors.append("bottleneck certificate rejected the allocation")
        return errors

    def work(self, instance, rows) -> int:
        return instance["flows"]

    def fingerprint(self, instance, rows) -> Dict:
        return {"n": self.n, "flows": instance["flows"],
                "links": instance["links"], "rows": len(rows)}


class E6Routers:
    """The E6 stochastic sweep: four routers scored against the macro-switch."""

    name = "e6_routers"
    unit = "cells"
    instances = 16
    n, num_flows, seeds_per_call = 4, 40, 2

    def setup(self, seed: int) -> List[Dict]:
        return [
            {"seeds": list(range(s, s + self.seeds_per_call))}
            for s in instance_seeds(seed, self.instances)
        ]

    def call(self, instance):
        return ecmp_exp.stochastic_comparison(
            n=self.n, num_flows=self.num_flows, seeds=instance["seeds"]
        )

    def check(self, instance, rows) -> List[str]:
        errors = []
        expected = 3 * 4 * self.seeds_per_call  # traffic families x routers x seeds
        if len(rows) != expected:
            errors.append(f"{len(rows)} cells, expected {expected}")
        for row in rows:
            if not row.lex_at_most_macro:
                errors.append(f"{row.workload}/{row.router}/{row.seed}: lex-exceeds macro")
            # Theorem 5.4: no routing exceeds twice the macro-switch
            # max-min throughput.
            if not row.throughput_fraction <= 2:
                errors.append(
                    f"{row.workload}/{row.router}/{row.seed}: throughput "
                    f"fraction {row.throughput_fraction} > 2"
                )
        return errors

    def work(self, instance, rows) -> int:
        return len(rows)

    def fingerprint(self, instance, rows) -> Dict:
        return {
            "n": self.n,
            "num_flows": self.num_flows,
            "seeds": instance["seeds"],
            "cells": len(rows),
            "flows": sum(row.num_flows for row in rows),
        }


WORKLOADS = {w.name: w for w in (Churn(), E4Quotient(), E6Routers())}
