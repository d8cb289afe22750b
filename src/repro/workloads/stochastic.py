"""Stochastic traffic generators for the simulation study (§6).

The paper's extended version evaluates data-center routing algorithms on
*stochastic inputs*; these generators produce the standard traffic
families that literature uses for Clos evaluation:

- :func:`uniform_random` — each flow picks a source and destination
  uniformly at random (with replacement).
- :func:`permutation` — a random one-to-one mapping of sources to
  destinations (the classic admission-control-friendly pattern: ``T^MT``
  equals the number of flows).
- :func:`hotspot` — a Zipf-skewed destination distribution: a few
  destinations receive most flows (models popular services).
- :func:`incast` — ``fan_in`` sources all send to one destination
  (models partition–aggregate applications).
- :func:`elephant_mice` — a small clique of persistent pairwise-distinct
  "elephant" pairs plus many random "mice" flows; used to show routers
  trading off the two classes.

All generators are deterministic given ``seed`` and return flows on the
given Clos network (valid for its macro-switch too, since both share
server names).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.core.flows import FlowCollection
from repro.core.nodes import Destination, Source
from repro.core.topology import ClosNetwork


def _servers(network: ClosNetwork) -> Tuple[List[Source], List[Destination]]:
    return list(network.sources), list(network.destinations)


def uniform_random(
    network: ClosNetwork, num_flows: int, seed: int = 0
) -> FlowCollection:
    """``num_flows`` flows with uniformly random endpoints."""
    rng = random.Random(seed)
    sources, destinations = _servers(network)
    flows = FlowCollection()
    for _ in range(num_flows):
        flows.add_pair(rng.choice(sources), rng.choice(destinations))
    return flows


def permutation(network: ClosNetwork, seed: int = 0) -> FlowCollection:
    """A random permutation: every source sends to a distinct destination."""
    rng = random.Random(seed)
    sources, destinations = _servers(network)
    shuffled = list(destinations)
    rng.shuffle(shuffled)
    return FlowCollection.from_pairs(zip(sources, shuffled))


def hotspot(
    network: ClosNetwork,
    num_flows: int,
    skew: float = 1.2,
    seed: int = 0,
) -> FlowCollection:
    """Zipf-skewed destinations: destination ranked ``r`` has weight ``r^-skew``."""
    if skew <= 0:
        raise ValueError(f"skew must be positive, got {skew}")
    rng = random.Random(seed)
    sources, destinations = _servers(network)
    ranked = list(destinations)
    rng.shuffle(ranked)
    weights = [1.0 / (rank**skew) for rank in range(1, len(ranked) + 1)]
    flows = FlowCollection()
    for _ in range(num_flows):
        flows.add_pair(rng.choice(sources), rng.choices(ranked, weights)[0])
    return flows


def incast(
    network: ClosNetwork,
    fan_in: int,
    dest: Optional[Destination] = None,
    seed: int = 0,
) -> FlowCollection:
    """``fan_in`` distinct sources all sending to a single destination."""
    rng = random.Random(seed)
    sources, destinations = _servers(network)
    if fan_in > len(sources):
        raise ValueError(
            f"fan_in {fan_in} exceeds the {len(sources)} available sources"
        )
    if dest is None:
        dest = rng.choice(destinations)
    chosen = rng.sample(sources, fan_in)
    return FlowCollection.from_pairs((s, dest) for s in chosen)


def rack_local(
    network: ClosNetwork,
    num_flows: int,
    locality: float = 0.5,
    seed: int = 0,
) -> FlowCollection:
    """A rack-locality mix: with probability ``locality`` a flow stays
    within its source's "rack pair" (destination ToR index equals the
    source ToR index), otherwise it crosses to a uniformly random other
    ToR.  Production traces show strong locality (the paper's refs
    [29, 30]); sweeping ``locality`` moves load between server links and
    the network interior.
    """
    if not 0 <= locality <= 1:
        raise ValueError(f"locality must be in [0, 1], got {locality}")
    rng = random.Random(seed)
    flows = FlowCollection()
    num_tors = 2 * network.n
    for _ in range(num_flows):
        source = rng.choice(network.sources)
        if rng.random() < locality:
            dest_switch = source.switch
        else:
            dest_switch = rng.choice(
                [i for i in range(1, num_tors + 1) if i != source.switch]
            )
        dest = network.destination(dest_switch, rng.randint(1, network.n))
        flows.add_pair(source, dest)
    return flows


def elephant_mice(
    network: ClosNetwork,
    num_elephants: int,
    num_mice: int,
    seed: int = 0,
) -> Tuple[FlowCollection, List, List]:
    """Elephants on distinct source/destination pairs plus random mice.

    Returns ``(flows, elephant_flows, mouse_flows)``; elephants are
    inserted first so routers that process flows in insertion order see
    them first.
    """
    rng = random.Random(seed)
    sources, destinations = _servers(network)
    if num_elephants > min(len(sources), len(destinations)):
        raise ValueError("more elephants than distinct endpoint pairs")
    elephant_sources = rng.sample(sources, num_elephants)
    elephant_dests = rng.sample(destinations, num_elephants)
    flows = FlowCollection()
    elephants = []
    for s, d in zip(elephant_sources, elephant_dests):
        elephants.extend(flows.add_pair(s, d))
    mice = []
    for _ in range(num_mice):
        mice.extend(flows.add_pair(rng.choice(sources), rng.choice(destinations)))
    return flows, elephants, mice


def churn_workload(
    network: ClosNetwork,
    rate: float,
    horizon: float,
    mean_size: float = 1.0,
    size_distribution: str = "exponential",
    seed: int = 0,
):
    """The open-loop Poisson churn sequence of the ``churn`` experiment.

    Endpoints are uniform over the network's sources and destinations,
    so this is :func:`repro.sim.jobs.poisson_workload` with the same
    arguments.  Returns a list of :class:`~repro.sim.jobs.FlowJob`\\ s
    sorted by arrival.
    """
    from repro.sim.jobs import poisson_workload

    return poisson_workload(
        network, rate, horizon, mean_size=mean_size,
        size_distribution=size_distribution, seed=seed,
    )
