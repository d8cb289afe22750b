"""Command-line driver: regenerate any experiment from a terminal.

Usage::

    python -m repro list                 # show available experiments
    python -m repro run e1               # Figure 1 / Example 2.3 (e1..e16)
    python -m repro run e2 --ks 1,2,4,8  # R1 sweep with custom k values
    python -m repro run e4 --sizes 64 --backend quotient  # exact, n = 64
    python -m repro run all              # everything (seconds)

Every sweep runs its points one after another in this process.

Each experiment prints the same measured-vs-paper table its benchmark
target prints, so the CLI is the interactive face of the harness.

``run`` goes through :mod:`repro.runner`: ``run all`` continues past
failing experiments (``--fail-fast`` stops at the first), prints a
pass/fail summary table, and exits non-zero if anything failed.
``--timeout`` bounds each experiment's wall clock, and ``--manifest
sweep.json`` records what ran (git SHA, params, each step's status,
duration and error) when the sweep ends.  Every experiment is seeded
and exact, so nothing is retried: a failed step would fail again.

``profile`` runs one experiment under :mod:`repro.obs` tracing and
prints the span tree (wall time, share of total, peak memory) plus
every counter the hot paths incremented; ``--trace out.jsonl`` writes
the span trees as JSONL.  ``stats`` renders the same summary from a
manifest written by a sweep that ran with ``REPRO_OBS=1``::

    python -m repro profile e2
    REPRO_OBS=1 python -m repro run all --manifest sweep.json
    python -m repro stats sweep.json
    python -m repro profile e4 --trace e4.jsonl

Performance is measured outside the package, by ``perfbench/run.py``
(see ``docs/PERFORMANCE.md``).

Self-checking runtime (see :mod:`repro.validate` and
``docs/ROBUSTNESS.md``): the global ``--validate {off,cheap,full}``
flag certifies every solver result produced by any subcommand;
``fuzz`` cross-checks all backends on adversarial instances and
quarantines disagreements as replayable bundles; ``replay`` re-runs a
bundle and delta-debugs it down to a minimal reproducer::

    python -m repro --validate full run e4
    python -m repro fuzz --seeds 200
    python -m repro replay quarantine/q-fuzz-disagreement-0123abcd4567.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis import format_series, format_table


def _parse_ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _checked(cast: Callable, ok: Callable, requirement: str) -> Callable:
    """An argparse ``type`` that also rejects values failing ``ok``."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text}"
            )
        return value

    parse.__name__ = cast.__name__  # keeps "invalid int value: 'x'"
    return parse


_POSITIVE_INT = _checked(int, lambda v: v >= 1, ">= 1")
_POSITIVE_FLOAT = _checked(float, lambda v: v > 0, "> 0")


def _backend_names(text: str) -> List[str]:
    """An argparse ``type`` for ``fuzz --backends``: names that
    :func:`repro.core.solve.solve_max_min` accepts, at least one."""
    from repro.core.solve import BACKENDS as allowed

    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names or any(name not in allowed for name in names):
        raise argparse.ArgumentTypeError(
            f"expected backends from {', '.join(allowed)}, got {text!r}"
        )
    return names


# ----------------------------------------------------------------------
# Experiment runners (thin printing wrappers over repro.experiments)
# ----------------------------------------------------------------------
def run_e1(args: argparse.Namespace) -> None:
    from repro.experiments.example_2_3 import run

    result = run()
    print(
        format_table(
            ["allocation", "sorted vector"],
            [
                ["macro-switch", [str(r) for r in result.macro_vector]],
                ["routing A", [str(r) for r in result.routing_a_vector]],
                ["routing B", [str(r) for r in result.routing_b_vector]],
                ["lex optimum", [str(r) for r in result.lex_optimum_vector]],
            ],
            title="E1 — Figure 1 / Example 2.3",
        )
    )
    print(f"matches paper: {result.matches_paper}")


def run_e2(args: argparse.Namespace) -> None:
    from repro.experiments.r1_price_of_fairness import sweep

    ks = _parse_ints(args.ks) if args.ks else [1, 2, 4, 8, 16, 32, 64]
    rows = sweep(ks)
    print(
        format_series(
            "k",
            [row.k for row in rows],
            {
                "T^MT": [row.t_max_throughput for row in rows],
                "T^MmF": [row.t_max_min for row in rows],
                "ratio": [row.ratio for row in rows],
                "paper": [row.predicted_ratio for row in rows],
            },
            title="E2 — Theorem 3.4 price of fairness",
        )
    )


def run_e3(args: argparse.Namespace) -> None:
    from repro.experiments.r2_starvation import infeasibility_sweep

    sizes = _parse_ints(args.sizes) if args.sizes else [3]
    rows = infeasibility_sweep(sizes)
    print(
        format_table(
            ["n", "flows", "splittable", "unsplittable"],
            [
                [
                    row.n,
                    row.num_flows,
                    row.splittable_feasible,
                    row.unsplittable_feasible,
                ]
                for row in rows
            ],
            title="E3 — Theorem 4.2 infeasibility",
        )
    )


def run_e4(args: argparse.Namespace) -> None:
    from repro.experiments.r2_starvation import starvation_sweep

    sizes = _parse_ints(args.sizes) if args.sizes else [3, 4, 5, 6]
    backend = getattr(args, "backend", None)
    rows = starvation_sweep(
        sizes,
        check_local_optimality=False,
        backend=backend,
    )
    print(
        format_series(
            "n",
            [row.n for row in rows],
            {
                "macro rate": [row.macro_type3_rate for row in rows],
                "lex rate": [row.lex_type3_rate for row in rows],
                "factor": [row.starvation_factor for row in rows],
                "certified": [row.bottleneck_certified for row in rows],
                "rates match": [row.per_type_rates_match for row in rows],
            },
            title="E4 — Theorem 4.3 starvation",
        )
    )


def run_e5(args: argparse.Namespace) -> None:
    from repro.experiments.r3_doom_switch import sweep

    rows = sweep(backend=getattr(args, "backend", None))
    print(
        format_series(
            "(n,k)",
            [f"({row.n},{row.k})" for row in rows],
            {
                "T^MmF": [row.t_macro_max_min for row in rows],
                "T doom": [row.t_doom for row in rows],
                "gain": [row.gain for row in rows],
                "paper": [row.predicted_gain for row in rows],
            },
            title="E5 — Theorem 5.4 Doom-Switch",
        )
    )


def run_e6(args: argparse.Namespace) -> None:
    from repro.experiments.ecmp_simulation import stochastic_comparison

    rows = stochastic_comparison(
        n=3 if args.n is None else args.n,
        num_flows=30,
        seeds=range(3),
        backend=getattr(args, "backend", None),
    )
    print(
        format_table(
            ["workload", "router", "seed", "throughput frac", "worst ratio"],
            [
                [
                    row.workload,
                    row.router,
                    row.seed,
                    row.throughput_fraction,
                    row.min_rate_ratio,
                ]
                for row in rows
            ],
            title="E6 — §6 router simulation",
        )
    )


def run_e7(args: argparse.Namespace) -> None:
    from repro.experiments.konig_equivalence import equivalence_checks

    rows = equivalence_checks()
    print(
        format_table(
            ["workload", "T^MT", "T^T-MT", "equal"],
            [[row.workload, row.t_mt_macro, row.t_mt_clos, row.equal] for row in rows],
            title="E7 — Lemma 5.2 equivalence",
        )
    )


def run_e8(args: argparse.Namespace) -> None:
    from repro.experiments.fct_scheduling import incast_comparison, load_sweep

    rows = incast_comparison(fan_in=8)
    print(
        format_table(
            ["policy", "mean FCT", "p99 FCT"],
            [[row.policy, row.stats.mean_fct, row.stats.p99_fct] for row in rows],
            title="E8 — §7 scheduling vs congestion control (incast)",
        )
    )
    sweep_rows = load_sweep(rates=(0.5, 1.5, 3.0))
    print(
        format_series(
            "load",
            [row.rate for row in sweep_rows],
            {
                "max-min FCT": [row.maxmin_mean_fct for row in sweep_rows],
                "scheduler FCT": [row.scheduler_mean_fct for row in sweep_rows],
                "speedup": [row.speedup for row in sweep_rows],
            },
        )
    )


def run_e9(args: argparse.Namespace) -> None:
    from repro.experiments.relative_fairness import (
        exact_objective_comparison,
        theorem_4_3_floor_probe,
    )

    rows = exact_objective_comparison()
    print(
        format_table(
            ["instance", "lex floor", "throughput floor", "relative floor"],
            [
                [row.instance, row.lex_floor, row.throughput_floor, row.relative_floor]
                for row in rows
            ],
            title="E9 — §7 relative-max-min fairness",
        )
    )
    probe = theorem_4_3_floor_probe(sizes=(3,))
    print(
        format_table(
            ["n", "lex floor", "relative floor (local search)"],
            [[row.n, row.lex_floor, row.relative_local_floor] for row in probe],
        )
    )


def run_e11(args: argparse.Namespace) -> None:
    from repro.experiments.convergence import paper_instances

    rows = paper_instances()
    print(
        format_table(
            ["instance", "flows", "levels", "rounds", "max error"],
            [
                [row.instance, row.num_flows, row.distinct_levels, row.rounds,
                 f"{row.max_error:.1e}"]
                for row in rows
            ],
            title="E11 — distributed convergence to max-min fairness",
        )
    )


def run_e12(args: argparse.Namespace) -> None:
    from repro.experiments.fattree_generality import (
        r1_on_fat_tree,
        r2_leakage_on_fat_tree,
    )

    rows = r1_on_fat_tree()
    print(
        format_table(
            ["workload", "T^MmF", "T^MT", "bound holds"],
            [[row.workload, row.t_max_min, row.t_max_throughput, row.bound_holds]
             for row in rows],
            title="E12 — R1 on the k-ary fat-tree",
        )
    )
    leak = r2_leakage_on_fat_tree()
    print(
        format_table(
            ["seed", "below macro", "worst ratio", "interior-bottlenecked"],
            [[row.seed, f"{row.num_below_macro}/{row.num_flows}",
              row.min_ratio, row.interior_bottlenecked] for row in leak],
        )
    )


def run_e13(args: argparse.Namespace) -> None:
    from repro.experiments.planted_gadgets import planted_starvation

    rows = planted_starvation()
    print(
        format_table(
            ["router", "background", "type-3 rate", "ratio"],
            [[row.router, row.num_background, row.network_rate, row.ratio]
             for row in rows],
            title="E13 — Theorem 4.3 gadget in background traffic",
        )
    )


def run_e14(args: argparse.Namespace) -> None:
    from repro.experiments.failure_degradation import middle_failure_sweep

    rows = middle_failure_sweep()
    print(
        format_table(
            ["failed", "pinned T", "pinned min", "rerouted T", "rerouted min"],
            [[row.failed_middles, row.pinned_throughput, row.pinned_min_rate,
              row.rerouted_throughput, row.rerouted_min_rate] for row in rows],
            title="E14 — middle-switch failure degradation",
        )
    )


def run_e15(args: argparse.Namespace) -> None:
    from repro.experiments.oversubscription import sweep

    rows = sweep()
    print(
        format_table(
            ["c", "oversub", "T^MT", "T Clos", "Lemma 5.2", "tput frac", "worst ratio"],
            [
                [
                    row.interior_capacity,
                    row.oversubscription,
                    row.t_mt_macro,
                    row.t_clos_lp,
                    row.lemma_5_2_equality,
                    row.throughput_fraction,
                    row.min_rate_ratio,
                ]
                for row in rows
            ],
            title="E15 — oversubscription: breaking full bisection",
        )
    )


def run_e16(args: argparse.Namespace) -> None:
    from repro.experiments.splittable_equivalence import (
        random_equivalence,
        starvation_reversal,
    )

    rows = random_equivalence()
    print(
        format_table(
            ["instance", "worst |gap|", "equivalent"],
            [[row.instance, f"{row.worst_gap:.2e}", row.equivalent] for row in rows],
            title="E16 — splittable C_n max-min vs macro-switch",
        )
    )
    reversal = starvation_reversal()
    print(
        format_table(
            ["n", "macro", "unsplittable (Thm 4.3)", "splittable"],
            [
                [row.n, row.macro_rate, row.unsplittable_rate, row.splittable_rate]
                for row in reversal
            ],
        )
    )


def run_e10(args: argparse.Namespace) -> None:
    from repro.experiments.rearrangeability import theorem_4_2_repair

    rows = theorem_4_2_repair()
    print(
        format_table(
            ["instance", "exact m*", "heuristic m", "2n-1", "⌈20n/9⌉"],
            [
                [row.instance, row.exact_m, row.heuristic_m, row.conjecture_m, row.proven_m]
                for row in rows
            ],
            title="E10 — middle switches needed to repair Theorem 4.2",
        )
    )


def run_churn(args: argparse.Namespace) -> None:
    from repro.experiments.churn import churn_comparison

    # Test for None, never truthiness: 0 is a real --window (re-solve
    # per event).
    def arg(name: str, default):
        value = getattr(args, name, None)
        return default if value is None else value

    rows = churn_comparison(
        n=arg("n", 4),
        rate=arg("rate", 100.0),
        horizon=arg("horizon", 1.5),
        batch_window=arg("window", 0.05),
    )
    print(
        format_table(
            ["config", "jobs", "events", "wall s", "events/s", "patched", "full"],
            [
                [
                    row.config,
                    row.jobs,
                    row.flow_events,
                    f"{row.wall_s:.3f}",
                    f"{row.events_per_sec:,.0f}",
                    "-" if row.patched is None else row.patched,
                    "-" if row.fullsolve is None else row.fullsolve,
                ]
                for row in rows
            ],
            title="churn — streaming allocation under flow churn",
        )
    )


EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], None]] = {
    "e1": run_e1,
    "e2": run_e2,
    "e3": run_e3,
    "e4": run_e4,
    "e5": run_e5,
    "e6": run_e6,
    "e7": run_e7,
    "e8": run_e8,
    "e9": run_e9,
    "e10": run_e10,
    "e11": run_e11,
    "e12": run_e12,
    "e13": run_e13,
    "e14": run_e14,
    "e15": run_e15,
    "e16": run_e16,
    "churn": run_churn,
}

DESCRIPTIONS: Dict[str, str] = {
    "e1": "Figure 1 / Example 2.3 — routing sensitivity in C_2",
    "e2": "Figure 2 / Theorem 3.4 (R1) — price of fairness",
    "e3": "Figure 3 / Theorem 4.2 — macro rates unroutable",
    "e4": "Figure 3 / Theorem 4.3 (R2) — 1/n starvation",
    "e5": "Figure 4 / Theorem 5.4 (R3) — Doom-Switch",
    "e6": "§6 — ECMP vs congestion-aware routers",
    "e7": "Lemma 5.2 — König throughput equivalence",
    "e8": "§7 R1 — scheduling vs congestion control (FCT)",
    "e9": "§7 R2 — relative-max-min fairness",
    "e10": "§6 related work — multirate rearrangeability",
    "e11": "§2.2 — distributed convergence to max-min fairness",
    "e12": "§7 — the paper's phenomena on k-ary fat-trees",
    "e13": "extension — adversarial gadgets in background traffic",
    "e14": "extension — middle-switch failure degradation",
    "e15": "extension — oversubscription (breaking full bisection)",
    "e16": "§1 premise — splittability restores the macro-switch",
    "churn": "extension — streaming max-min allocation under flow churn",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's experiments from the terminal.",
    )
    parser.add_argument(
        "--validate",
        choices=["off", "cheap", "full"],
        help="certify every solver result at this level "
        "(overrides REPRO_VALIDATE; see docs/ROBUSTNESS.md)",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list available experiments")

    report = sub.add_parser(
        "report", help="run experiments and write a markdown report"
    )
    report.add_argument(
        "-o", "--output", default="REPORT.md", help="output path"
    )
    report.add_argument(
        "--only", help="comma-separated experiment ids (default: all)"
    )

    profile = sub.add_parser(
        "profile",
        help="run one experiment under tracing; print spans and counters",
    )
    profile.add_argument("experiment", help="e1..e16")
    profile.add_argument("--ks", help="comma-separated k values (e2)")
    profile.add_argument(
        "--sizes", help="comma-separated network sizes (e3/e4)"
    )
    profile.add_argument(
        "--n", type=_POSITIVE_INT, help="network size (e6; >= 1)"
    )
    profile.add_argument(
        "--backend",
        choices=[
            "reference", "vectorized", "quotient", "streaming",
            "batched",
        ],
        help="max-min solver backend for e4/e5/e6 "
        "(quotient = exact symmetry reduction, scales to n >= 64; "
        "streaming = incremental under churn; batched = all sweep "
        "points stacked into one block-diagonal float batch)",
    )
    profile.add_argument(
        "--trace", help="write the span trees to this JSONL file"
    )
    profile.add_argument(
        "--no-memory",
        dest="memory",
        action="store_false",
        default=True,
        help="skip tracemalloc peak-memory accounting (faster)",
    )

    stats = sub.add_parser(
        "stats",
        help="summarize timings/counters from a traced run manifest",
    )
    stats.add_argument("manifest", help="manifest JSON written by 'run'")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="e1..e16, 'churn', or 'all'")
    run.add_argument("--ks", help="comma-separated k values (e2)")
    run.add_argument("--sizes", help="comma-separated network sizes (e3/e4)")
    run.add_argument(
        "--n", type=_POSITIVE_INT, help="network size (e6/churn; >= 1)"
    )
    run.add_argument(
        "--rate",
        type=_POSITIVE_FLOAT,
        help="mean arrivals per time unit (churn; > 0 — a Poisson "
        "workload needs a positive rate, so 0 is a usage error)",
    )
    run.add_argument(
        "--horizon",
        type=_POSITIVE_FLOAT,
        help="arrival horizon in time units (churn; > 0)",
    )
    run.add_argument(
        "--window",
        type=float,
        help="micro-batch window in simulated time units (churn; "
        "0 = re-solve per event)",
    )
    run.add_argument(
        "--backend",
        choices=[
            "reference", "vectorized", "quotient", "streaming",
            "batched",
        ],
        help="max-min solver backend for e4/e5/e6 "
        "(quotient = exact symmetry reduction, scales to n >= 64; "
        "streaming = incremental under churn; batched = all sweep "
        "points stacked into one block-diagonal float batch)",
    )
    run.add_argument(
        "--timeout",
        type=float,
        help="per-experiment wall-clock limit in seconds",
    )
    run.add_argument(
        "--manifest",
        help="write a record of the run to this JSON file when it ends",
    )
    keep = run.add_mutually_exclusive_group()
    keep.add_argument(
        "--keep-going",
        dest="keep_going",
        action="store_true",
        default=True,
        help="continue past failing experiments (default)",
    )
    keep.add_argument(
        "--fail-fast",
        dest="keep_going",
        action="store_false",
        help="stop at the first failing experiment",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="chaos-fuzz the solver backends; quarantine any disagreement",
    )
    fuzz.add_argument(
        "--seeds",
        type=_POSITIVE_INT,
        default=50,
        help="number of deterministic fuzz seeds to explore "
        "(default 50; >= 1)",
    )
    fuzz.add_argument(
        "--backends",
        type=_backend_names,
        help="comma-separated backends to cross-check "
        "(default: every non-reference backend)",
    )
    fuzz.add_argument(
        "--quarantine-dir",
        help="write failure bundles here (default: REPRO_QUARANTINE_DIR "
        "or ./quarantine)",
    )
    fuzz.add_argument(
        "--no-churn",
        dest="churn",
        action="store_false",
        default=True,
        help="skip the flowsim churn-snapshot instances (static only)",
    )

    replay = sub.add_parser(
        "replay",
        help="re-run a quarantine bundle; minimize it if it reproduces",
    )
    replay.add_argument("bundle", help="path to a q-*.json bundle")
    replay.add_argument(
        "--no-minimize",
        dest="minimize",
        action="store_false",
        default=True,
        help="skip delta-debugging the flow set of a reproducing bundle",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.validate:
        from repro.validate import set_validation_level

        set_validation_level(args.validate)

    if args.command == "list" or args.command is None:
        print(
            format_table(
                ["id", "experiment"],
                [[key, DESCRIPTIONS[key]] for key in EXPERIMENTS],
                title="available experiments (python -m repro run <id>)",
            )
        )
        return 0

    if args.command == "report":
        from repro.report import write_report

        ids = args.only.split(",") if args.only else None
        path = write_report(args.output, ids)
        print(f"wrote {path}")
        return 0

    if args.command == "run":
        return _run_command(args)

    if args.command == "profile":
        return _profile_command(args)

    if args.command == "stats":
        return _stats_command(args)

    if args.command == "fuzz":
        return _fuzz_command(args)

    if args.command == "replay":
        return _replay_command(args)

    parser.print_help()
    return 2


def _fuzz_command(args: argparse.Namespace) -> int:
    """The ``fuzz`` subcommand: cross-check all backends on adversarial
    instances; exit 1 if any disagreement or certificate failure."""
    from repro.chaos import fuzz

    report = fuzz(
        args.seeds,
        backends=args.backends,
        directory=args.quarantine_dir,
        churn_every=5 if args.churn else 0,
    )
    print(
        f"fuzz: {report.seeds} seeds, {report.instances} instances, "
        f"{len(report.failures)} failure(s)"
    )
    if not report.failures:
        return 0
    print(
        format_table(
            ["seed", "instance", "backend", "kind", "bundle"],
            [
                [f["seed"], f["instance"], f["backend"], f["kind"],
                 f["bundle"] or "(write failed)"]
                for f in report.failures
            ],
            title="fuzz failures (each quarantined for replay)",
        ),
        file=sys.stderr,
    )
    return 1


def _replay_command(args: argparse.Namespace) -> int:
    """The ``replay`` subcommand: re-run a bundle; exit 1 if it still
    reproduces on this machine."""
    from repro.io.serialize import ScenarioError
    from repro.quarantine import REPLAY_BACKENDS, load_bundle, replay

    try:
        bundle = load_bundle(args.bundle)
    except (OSError, ScenarioError) as error:
        print(f"cannot load bundle: {error}", file=sys.stderr)
        return 2
    if bundle.backend not in REPLAY_BACKENDS:
        print(
            f"cannot replay bundle: backend {bundle.backend!r} is not one "
            f"of {', '.join(REPLAY_BACKENDS)}",
            file=sys.stderr,
        )
        return 2

    print(
        f"replaying {args.bundle}: reason={bundle.reason!r} "
        f"backend={bundle.backend!r} flows={len(bundle.routing)}"
    )
    result = replay(bundle, minimize=args.minimize)
    if result.stored_failures:
        print("stored rates fail their certificate:")
        for failure in result.stored_failures:
            print(f"  - {failure}")
    if not result.reproduced:
        print("live re-run is healthy: failure does not reproduce here")
        return 0
    print("live re-run still fails:")
    for failure in result.live_failures:
        print(f"  - {failure}")
    if result.minimized_path is not None:
        print(
            f"minimized to {result.minimized_flows} flow(s): "
            f"{result.minimized_path}"
        )
    else:
        print(f"reproducer has {result.minimized_flows} flow(s)")
    return 1


# ----------------------------------------------------------------------
# Observability commands (see repro.obs and docs/OBSERVABILITY.md)
# ----------------------------------------------------------------------
class _SpanGroup:
    """Sibling spans of the same name, merged for compact display."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.duration = 0.0
        self.mem_peak: Optional[int] = None
        self.children: Dict[str, "_SpanGroup"] = {}

    def absorb(self, span) -> None:
        self.count += 1
        self.duration += span.duration
        if span.mem_peak_bytes is not None:
            self.mem_peak = max(self.mem_peak or 0, span.mem_peak_bytes)
        for child in span.children:
            group = self.children.get(child.name)
            if group is None:
                group = self.children[child.name] = _SpanGroup(child.name)
            group.absorb(child)


def _span_rows(roots, total: float):
    """Aggregate span trees (siblings merged by name) into table rows."""
    from repro.runner import format_bytes

    groups: Dict[str, _SpanGroup] = {}
    for root in roots:
        group = groups.get(root.name)
        if group is None:
            group = groups[root.name] = _SpanGroup(root.name)
        group.absorb(root)

    rows = []

    def emit(group: _SpanGroup, depth: int) -> None:
        share = (group.duration / total) if total > 0 else 0.0
        label = group.name if group.count == 1 else (
            f"{group.name} ×{group.count}"
        )
        rows.append(
            [
                "  " * depth + label,
                f"{group.duration * 1000:.3f}ms",
                f"{share * 100:.1f}%",
                "-" if group.mem_peak is None else format_bytes(group.mem_peak),
            ]
        )
        for child in group.children.values():
            emit(child, depth + 1)

    for group in groups.values():
        emit(group, 0)
    return rows


def _print_metric_table(snapshot, title: str) -> None:
    if not snapshot:
        print(f"{title}: no metric activity recorded")
        return
    rows = []
    for name, value in sorted(snapshot.items()):
        if isinstance(value, dict):
            value = ", ".join(f"{k}={v}" for k, v in sorted(value.items()))
        rows.append([name, value])
    print(format_table(["metric", "value"], rows, title=title))


def _profile_command(args: argparse.Namespace) -> int:
    """The ``profile`` subcommand: one experiment under full tracing."""
    from repro import obs

    name = args.experiment.lower()
    if name not in EXPERIMENTS:
        print(f"unknown experiment: {name!r} (try 'list')", file=sys.stderr)
        return 2

    was_enabled = obs.enabled()
    obs.enable(memory=args.memory)
    obs.reset()
    try:
        with obs.trace_span(f"profile:{name}"):
            EXPERIMENTS[name](args)
        roots = obs.tracer().collect()
        snapshot = obs.metrics_snapshot()
    finally:
        if not was_enabled:
            obs.disable()

    total = sum(span.duration for span in roots)
    print()
    print(
        format_table(
            ["span", "wall", "share", "peak mem"],
            _span_rows(roots, total),
            title=f"profile — {name} span tree (siblings merged by name)",
        )
    )
    print()
    _print_metric_table(snapshot, f"profile — {name} counters")

    if args.trace:
        path = obs.write_trace_jsonl(args.trace, roots)
        print(f"\nwrote {path}")
    return 0


def _stats_command(args: argparse.Namespace) -> int:
    """The ``stats`` subcommand: timings/counters from a traced manifest."""
    from repro.errors import ExperimentError
    from repro.runner import RunManifest, format_bytes

    try:
        manifest = RunManifest.load(args.manifest)
    except (OSError, ExperimentError) as error:
        print(f"cannot read manifest: {error}", file=sys.stderr)
        return 2

    rows = []
    metrics_rows = []
    aggregated: Dict[str, int] = {}
    traced_steps = 0
    metric_steps = 0
    for record in manifest.steps.values():
        span_wall = record.span_wall_seconds()
        peak = record.peak_memory_bytes()
        if record.trace is not None:
            traced_steps += 1
        if record.metrics:
            metric_steps += 1
        rows.append(
            [
                record.name,
                record.status.upper(),
                f"{record.duration:.2f}s",
                "-" if span_wall is None else f"{span_wall:.3f}s",
                "-" if peak is None else format_bytes(peak),
            ]
        )
        metrics_rows.append([record.name, record.status.upper(),
                             f"{record.duration:.2f}s"])
        for metric, value in (record.metrics or {}).items():
            if isinstance(value, int):
                aggregated[metric] = aggregated.get(metric, 0) + value

    if traced_steps == 0:
        # Manifests from REPRO_OBS=0 sweeps (or pre-observability runs)
        # carry no spans; degrade to the columns that exist instead of
        # printing a table of dashes.
        print(
            format_table(
                ["step", "status", "duration"],
                metrics_rows,
                title=f"stats — {args.manifest}",
            )
        )
        print()
        print(
            "no span traces embedded in this manifest "
            "(re-run the sweep with REPRO_OBS=1 to record them)"
        )
        if aggregated:
            print()
            _print_metric_table(aggregated, "aggregated counters")
        return 0

    print(
        format_table(
            ["step", "status", "duration", "wall (span)", "peak mem"],
            rows,
            title=f"stats — {args.manifest}",
        )
    )
    print()
    if metric_steps == 0:
        print("no metric deltas embedded in this manifest")
    else:
        _print_metric_table(aggregated, "aggregated counters")
    return 0


def _run_command(args: argparse.Namespace) -> int:
    """The ``run`` subcommand: direct for one experiment, through the
    runner (keep-going, summary table, manifest) for sweeps."""
    import functools

    name = args.experiment.lower()
    if name != "all" and name not in EXPERIMENTS:
        print(f"unknown experiment: {name!r} (try 'list')", file=sys.stderr)
        return 2
    names = list(EXPERIMENTS) if name == "all" else [name]

    if name != "all" and not (args.timeout or args.manifest):
        EXPERIMENTS[name](args)
        return 0

    from repro.runner import ResilientRunner, RunManifest

    manifest = None
    if args.manifest:
        params = {
            "ks": args.ks,
            "sizes": args.sizes,
            "n": args.n,
            "timeout": args.timeout,
        }
        manifest = RunManifest(
            args.manifest, experiments=names, params=params
        )

    def step(key: str) -> None:
        EXPERIMENTS[key](args)
        if name == "all":
            print()  # the separator a plain sweep always printed

    runner = ResilientRunner(
        manifest=manifest,
        timeout=args.timeout,
        keep_going=args.keep_going,
    )
    runner.run({key: functools.partial(step, key) for key in names})

    if name == "all":
        print(runner.summary_table())
    for record in runner.failed_steps():
        print(
            f"{record.name}: {record.status} — {record.error}",
            file=sys.stderr,
        )
    return runner.exit_code()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
