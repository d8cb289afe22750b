"""One module per paper artifact; see DESIGN.md §4 for the experiment index.

- E1  ``example_2_3``        — Figure 1 / Example 2.3
- E2  ``r1_price_of_fairness`` — Figure 2 / Theorem 3.4 (R1)
- E3  ``r2_starvation.infeasibility_sweep`` — Figure 3 / Theorem 4.2
- E4  ``r2_starvation.starvation_sweep``    — Figure 3 / Theorem 4.3 (R2)
- E5  ``r3_doom_switch``     — Figure 4 / Theorem 5.4 (R3)
- E6  ``ecmp_simulation``    — §6 extended-version simulation study
- E7  ``konig_equivalence``  — Lemma 5.2
- E8  ``fct_scheduling``     — §7 R1 discussion: scheduling vs congestion control
- E9  ``relative_fairness``  — §7 R2 discussion: relative-max-min fairness
- E10 ``rearrangeability``   — §6 related work: sizing the middle stage
- E11 ``convergence``        — §2.2's congestion-control idealization, mechanized
- E12 ``fattree_generality`` — §7's "every interconnection network" on fat-trees
- E13 ``planted_gadgets``    — adversarial gadgets inside background traffic
- E14 ``failure_degradation``— middle-switch failure injection
- E15 ``oversubscription``   — breaking the full-bisection premise
- E16 ``splittable_equivalence`` — §1's premise: splitting restores MS_n
- A1/A2 ``ablations``        — Doom-Switch dump policy; search strategies
"""

import importlib

__all__ = [
    "ablations",
    "convergence",
    "ecmp_simulation",
    "example_2_3",
    "failure_degradation",
    "fattree_generality",
    "fct_scheduling",
    "konig_equivalence",
    "oversubscription",
    "planted_gadgets",
    "r1_price_of_fairness",
    "r2_starvation",
    "r3_doom_switch",
    "rearrangeability",
    "relative_fairness",
    "splittable_equivalence",
]


def __getattr__(name):
    """Import ``repro.experiments.<name>`` on first access (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f"{__name__}.{name}")
