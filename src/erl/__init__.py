"""Epidemic resistance lab.

Exact computation of cuts, crusade widths, resistance, and CutWidth on
bounded-degree graphs; event-driven simulation of the budget-constrained
SIS curing process; and mechanical verification of the combinatorial
properties those computations rely on.
"""

__version__ = "0.1.0"

from .analysis import (CASE1, CASE2, NOT_APPLICABLE, IntervalWitness,
                       InvariantReport, RecoveryBoundReport, SlowRegimeConstants,
                       SweepRecord, audit_recovery_bound,
                       complete_extinction_mean, exact_extinction_times,
                       extinction_sweep, poisson_ld_exponent,
                       poisson_tail_probability, scan_halving_window,
                       slow_regime_constants, sweep_to_csv,
                       verify_table_invariants)
from .crusade import (BottleneckSequence, Crusade, audit_bottleneck,
                      bottleneck_sequence, crusade_from_json, crusade_to_json,
                      iter_bottleneck, validate_crusade, width)
from .epidemic import (HORIZON, INFECTION, MAX_EVENTS, RECOVERY, STALLED,
                       EpidemicConfig, Event, EventLog, Policy,
                       SimulationResult, builtin_policy, derive_seed,
                       event_streams, replay, simulate, validate_log)
from .errors import (CapacityError, ErlError, GenerationError, GraphParseError,
                     InvalidBagError, LemmaViolationError, PolicyViolationError,
                     ReplayError)
from .graph import (GENERATE_CAP, Bag, Graph, cut, cut_table, generate,
                    parse_graph, serialize_graph)
from .resistance import (LATTICE_CAP, ORACLE_CAP, UNREACHED,
                         CompleteGraphResistance, ResistanceTable,
                         brute_force_resistance, brute_force_resistance_all,
                         check_bellman, cutwidth, monotone_resistance_table,
                         resistance_table, witness_crusade)
