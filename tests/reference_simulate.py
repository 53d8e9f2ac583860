"""The plainest loop of ``simulate``'s law, kept as its oracle.

At every event it asks the policy to ``allocate`` on the run's policy
stream, checks the allocation with ``_curing_table``, recounts the cut of
the infected set from scratch with ``graph.cut``, and then draws the next
event as ``simulate`` does: an exponential time at the total rate, a
uniform choosing infection or recovery, then the infected node by a scan
of the healthy nodes in node order (the healthy end of the k-th cut edge)
or the cured node by a bisection of the curing table's running sums.

It keeps no memo and shares no weight rule, stream watch or
``toggle_delta`` with ``simulate``, so a fault in that bookkeeping shows as
a log that differs from this one.
"""

from __future__ import annotations

from bisect import bisect_right

from erl import (HORIZON, INFECTION, MAX_EVENTS, RECOVERY, STALLED, Bag,
                 EpidemicConfig, EventLog, Policy, SimulationResult, cut)
from erl.epidemic import _curing_table
from erl.graph import _stream


def reference_simulate(config: EpidemicConfig, policy: Policy,
                       replication: int = 0) -> SimulationResult:
    g = config.graph
    ev_rng = _stream(config.seed, replication, 0)
    policy_rng = _stream(config.seed, replication, 1)
    beta = float(config.infection_rate)
    mask = config.initial_infected.mask
    times, kinds, nodes = [], [], []
    t = 0.0
    tau = censored = None
    while True:
        if not mask:
            tau = t
            break
        if len(times) >= config.max_events:
            censored = MAX_EVENTS
            break
        alloc = policy.allocate(g, mask, config.budget, policy_rng)
        rho, cured, sums = _curing_table(alloc, mask, config.budget,
                                         policy.name)
        cut_now = cut(g, Bag.from_mask(mask))
        infection = beta * cut_now
        total = infection + rho
        if total == 0.0:
            censored = STALLED
            break
        dt = ev_rng.exponential(1.0 / total)
        if config.horizon is not None and t + dt > config.horizon:
            censored = HORIZON
            break
        t += dt
        if ev_rng.random() * total < infection:
            k = int(ev_rng.integers(cut_now))
            for node in range(g.node_count):
                if not (mask >> node) & 1:
                    k -= sum((mask >> w) & 1 for w in g.adjacency[node])
                    if k < 0:
                        break
            else:
                raise AssertionError(f"cut {cut_now} exceeds the boundary")
            kind = INFECTION
        else:
            u = ev_rng.random() * rho
            node = cured[min(bisect_right(sums, u), len(cured) - 1)]
            kind = RECOVERY
        mask ^= 1 << node
        times.append(t)
        kinds.append(kind)
        nodes.append(node)
    return SimulationResult(tau, censored, EventLog(
        config.initial_infected, tuple(times), tuple(kinds), tuple(nodes),
        Bag.from_mask(mask)))
