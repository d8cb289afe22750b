"""Contract tests for the experiment harness modules (E1–E10).

Each experiment is exercised at a reduced scale and its structural
guarantees asserted; the full-scale paper-shape assertions live in the
benchmark suite.
"""

from fractions import Fraction

import pytest

from repro.experiments import (
    ablations,
    convergence,
    ecmp_simulation,
    example_2_3,
    fattree_generality,
    fct_scheduling,
    konig_equivalence,
    r1_price_of_fairness,
    r2_starvation,
    r3_doom_switch,
    rearrangeability,
    relative_fairness,
)


class TestE1:
    def test_run_matches_paper(self):
        result = example_2_3.run()
        assert result.matches_paper
        assert result.orderings_hold
        assert result.lex_optimum_vector == result.routing_a_vector


class TestE2:
    def test_sweep_rows_match(self):
        rows = r1_price_of_fairness.sweep(ks=(1, 4))
        assert [row.k for row in rows] == [1, 4]
        assert all(row.matches for row in rows)

    def test_random_bound(self):
        rows = r1_price_of_fairness.random_bound_check(
            n=2, num_flows=10, seeds=range(2)
        )
        assert all(row.bound_holds for row in rows)
        assert {row.workload for row in rows} == {"uniform", "hotspot"}


class TestE3E4:
    def test_infeasibility(self):
        rows = r2_starvation.infeasibility_sweep((3,))
        assert not rows[0].unsplittable_feasible
        assert rows[0].splittable_feasible

    def test_starvation_small(self):
        rows = r2_starvation.starvation_sweep((3,), check_local_optimality=False)
        assert rows[0].starvation_factor == Fraction(1, 3)
        assert rows[0].bottleneck_certified
        assert rows[0].per_type_rates_match

    def test_claim_4_5(self):
        assert r2_starvation.claim_4_5_integer_solutions(4) == [(0, 4), (5, 0)]

    def test_random_routing_dominance(self):
        row = r2_starvation.random_routing_dominance(3, samples=50, seed=0)
        assert row.dominated + row.ties == 50
        assert row.dominated > 0


class TestE5:
    def test_sweep_point(self):
        rows = r3_doom_switch.sweep(points=((7, 1),))
        row = rows[0]
        assert row.gain == row.predicted_gain == Fraction(10, 9)
        assert row.upper_bound_holds

    def test_exact_bound(self):
        rows = r3_doom_switch.exact_bound_check(n=2, num_flows=4, seeds=range(2))
        assert all(row.upper_bound_holds for row in rows)


class TestE6:
    def test_stochastic_rows_complete(self):
        rows = ecmp_simulation.stochastic_comparison(
            n=2, num_flows=10, seeds=range(1)
        )
        pairs = {(row.workload, row.router) for row in rows}
        assert len(pairs) == 12  # 3 workloads x 4 routers
        assert all(row.lex_at_most_macro for row in rows)

    def test_adversarial_rows(self):
        rows = ecmp_simulation.adversarial_comparison(n=3)
        assert {row.router for row in rows} == {
            "ecmp",
            "two_choice",
            "greedy",
            "local_search",
        }
        assert all(row.min_rate_ratio < 1 for row in rows)

    def test_allocation_summaries(self):
        summaries = ecmp_simulation.allocation_summaries(
            n=2, num_flows=10, seed=0
        )
        assert "macro_switch" in summaries
        assert all("jain" in s for s in summaries.values())


#: ``stochastic_comparison(n=4, num_flows=40, seeds=[0, 1])``, recorded
#: before E6 scored per distinct rate object: (workload, router, seed,
#: flows, throughput fraction, worst ratio, mean ratio, lex ≤ macro).
E6_ROWS_N4 = [
    ("uniform", "ecmp", 0, 40, "380/447", "1/2", 0.8995833333333334, True),
    ("uniform", "two_choice", 0, 40, "431/447", "1/2", 0.9809374999999999, True),
    ("uniform", "greedy", 0, 40, "1", "1", 1.0, True),
    ("uniform", "local_search", 0, 40, "1", "1", 1.0, True),
    ("permutation", "ecmp", 0, 32, "113/192", "1/3", 0.5885416666666665, True),
    ("permutation", "two_choice", 0, 32, "43/64", "1/2", 0.671875, True),
    ("permutation", "greedy", 0, 32, "27/32", "1/2", 0.84375, True),
    ("permutation", "local_search", 0, 32, "7/8", "1/2", 0.875, True),
    ("hotspot", "ecmp", 0, 40, "2002/2505", "13/33", 0.9065151515151516, True),
    ("hotspot", "two_choice", 0, 40, "797/835", "6/11", 0.9836363636363636, True),
    ("hotspot", "greedy", 0, 40, "1", "1", 1.0, True),
    ("hotspot", "local_search", 0, 40, "1", "1", 1.0, True),
    ("uniform", "ecmp", 1, 40, "301/366", "5/12", 0.8823145933014356, True),
    ("uniform", "two_choice", 1, 40, "57/61", "1/2", 0.9542543859649124, True),
    ("uniform", "greedy", 1, 40, "1", "1", 1.0, True),
    ("uniform", "local_search", 1, 40, "1", "1", 1.0, True),
    ("permutation", "ecmp", 1, 32, "233/384", "1/4", 0.6067708333333334, True),
    ("permutation", "two_choice", 1, 32, "23/32", "1/2", 0.71875, True),
    ("permutation", "greedy", 1, 32, "15/16", "1/2", 0.9375, True),
    ("permutation", "local_search", 1, 32, "15/16", "1/2", 0.9375, True),
    ("hotspot", "ecmp", 1, 40, "252/277", "1/2", 0.9647619047619049, True),
    ("hotspot", "two_choice", 1, 40, "2213/2216", "67/70", 0.9989285714285714, True),
    ("hotspot", "greedy", 1, 40, "1", "1", 1.0, True),
    ("hotspot", "local_search", 1, 40, "1", "1", 1.0, True),
]


class TestE6MacroSolvedOnce:
    """Every E6 entry point hands its one macro-switch solve to the
    routers; none of them solves the macro switch a second time."""

    @pytest.fixture(autouse=True)
    def no_second_macro_solve(self, monkeypatch):
        """The routers' own macro solve, and the one inside it, raise."""

        def refuse(*args, **kwargs):
            raise AssertionError("routers re-solved the macro switch")

        for name in ("macro_switch_demands", "macro_switch_max_min"):
            monkeypatch.setattr(f"repro.routers.greedy.{name}", refuse)

    @pytest.mark.parametrize("backend", [None, "batched"])
    def test_stochastic_comparison(self, backend):
        rows = ecmp_simulation.stochastic_comparison(
            n=2, num_flows=10, seeds=[0, 1], backend=backend
        )
        assert len(rows) == 24

    @pytest.mark.parametrize("backend", [None, "batched"])
    def test_adversarial_comparison(self, backend):
        assert len(ecmp_simulation.adversarial_comparison(n=3, backend=backend)) == 4

    def test_locality_sweep(self):
        rows = ecmp_simulation.locality_sweep(
            n=2, num_flows=10, localities=(0.0, 1.0)
        )
        assert len(rows) == 6  # local_search is left out of the sweep

    def test_allocation_summaries(self):
        summaries = ecmp_simulation.allocation_summaries(n=2, num_flows=10)
        assert len(summaries) == 5

    def test_rows_pinned(self):
        rows = ecmp_simulation.stochastic_comparison(
            n=4, num_flows=40, seeds=[0, 1]
        )
        expected = [
            (name, router, seed, flows, Fraction(tput), Fraction(worst), mean, lex)
            for name, router, seed, flows, tput, worst, mean, lex in E6_ROWS_N4
        ]
        assert [tuple(row) for row in rows] == expected
        for row in rows:
            assert type(row.throughput_fraction) is Fraction
            assert type(row.min_rate_ratio) is Fraction


class TestE7:
    def test_equivalence(self):
        rows = konig_equivalence.equivalence_checks(
            n=2, num_flows=10, seeds=range(1)
        )
        assert all(row.equal and row.feasible for row in rows)


class TestE8:
    def test_incast_closed_forms(self):
        rows = fct_scheduling.incast_comparison(n=2, fan_in=4)
        stats = {row.policy: row.stats for row in rows}
        assert stats["maxmin"].mean_fct == pytest.approx(4.0)
        assert stats["scheduler"].mean_fct == pytest.approx(2.5)

    def test_load_sweep_speedups_positive(self):
        rows = fct_scheduling.load_sweep(rates=(1.0,), horizon=15.0)
        assert rows[0].speedup > 0

    def test_poisson_comparison_counts_consistent(self):
        rows = fct_scheduling.poisson_comparison(rate=1.0, horizon=15.0)
        counts = {row.stats.count for row in rows}
        assert len(counts) == 1  # same workload completed by every policy


class TestE9:
    def test_exact_objectives(self):
        rows = relative_fairness.exact_objective_comparison(seeds=range(1))
        assert all(row.relative_dominates for row in rows)
        example = rows[0]
        assert example.instance == "example_2_3"
        assert example.relative_floor == Fraction(3, 4)

    def test_theorem_4_3_probe(self):
        rows = relative_fairness.theorem_4_3_floor_probe(sizes=(3,))
        assert rows[0].lex_floor == Fraction(1, 3)
        assert rows[0].relative_local_floor > Fraction(1, 3)

    def test_stochastic_floors(self):
        rows = relative_fairness.stochastic_floors(
            n=2, num_flows=8, seeds=range(2)
        )
        assert all(0 <= row.ecmp_floor <= 1 for row in rows)
        assert all(row.greedy_floor <= 1 for row in rows)


class TestE10:
    def test_theorem_4_2_repair(self):
        rows = rearrangeability.theorem_4_2_repair((3,))
        assert rows[0].exact_m == 4
        assert rows[0].within_conjecture

    def test_random_repair(self):
        rows = rearrangeability.random_allocation_repair(
            n=2, num_flows=6, seeds=range(2)
        )
        assert all(row.exact_m <= row.heuristic_m for row in rows)


class TestE11:
    def test_paper_instances_converge(self):
        rows = convergence.paper_instances()
        assert all(row.converged for row in rows)
        assert all(row.max_error < 1e-9 for row in rows)

    def test_stochastic_converges(self):
        rows = convergence.stochastic_instances(n=2, num_flows=10, seeds=range(2))
        assert all(row.converged for row in rows)

    def test_aimd_gap_bounded(self):
        rows = convergence.aimd_gap(flow_counts=(2,))
        assert rows[0].relative_gap < 0.5


class TestE12:
    def test_r1_bound(self):
        rows = fattree_generality.r1_on_fat_tree(k=4, num_flows=15, seeds=range(1))
        assert all(row.bound_holds for row in rows)

    def test_r2_leakage_certified(self):
        rows = fattree_generality.r2_leakage_on_fat_tree(
            k=4, num_flows=20, seeds=range(1)
        )
        assert all(row.certified for row in rows)
        assert all(0 < row.min_ratio <= 1 for row in rows)

    def test_dynamics(self):
        rows = fattree_generality.dynamics_on_fat_tree(
            k=4, num_flows=15, seeds=range(1)
        )
        assert all(row.converged for row in rows)


class TestAblations:
    def test_dump_policies(self):
        rows = ablations.dump_policy_ablation(points=((7, 1),))
        by_policy = {row.policy: row for row in rows}
        assert by_policy["least"].throughput >= by_policy["most"].throughput

    def test_search(self):
        rows = ablations.search_ablation(n=2, num_flows=4, seeds=range(2))
        assert all(row.space_reduced < row.space_full for row in rows)
        assert all(row.local_gap >= 0 for row in rows)
