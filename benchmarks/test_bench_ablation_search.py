"""A2 — ablation of the search strategy behind the exact objectives.

Design-choice questions: (1) how much does middle-switch symmetry
pruning shrink the exhaustive space, and (2) how close does cheap local
search get to the exact optima?  Expected shape: pruning removes an
n!-ish factor; local search matches the lex optimum on most small random
instances and never exceeds the exact throughput optimum.

Run:  pytest benchmarks/test_bench_ablation_search.py --benchmark-only -s
"""

from repro.analysis import format_table
from repro.experiments.ablations import search_ablation


def test_bench_a2_search(benchmark):
    rows = benchmark(search_ablation, 2, 5, range(4))

    print("\n[A2] Search ablation — exhaustive vs symmetry-pruned vs local")
    print(
        format_table(
            [
                "seed",
                "full space",
                "pruned space",
                "lex local == exact",
                "T local",
                "T exact",
            ],
            [
                [
                    row.seed,
                    row.space_full,
                    row.space_reduced,
                    row.lex_local_matches_exact,
                    row.throughput_local,
                    row.throughput_exact,
                ]
                for row in rows
            ],
        )
    )

    for row in rows:
        assert row.space_reduced < row.space_full
        assert row.local_gap >= 0  # local search never beats the optimum
