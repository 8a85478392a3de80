"""Trap space computation for Boolean networks.

The solver path (prime implicant hypergraph + extremal arc-set enumeration)
scales to hundreds of variables; the dynamics path is an exhaustive oracle
for desk-scale cross-validation.
"""

from .analysis import (
    CommitmentTable,
    CyclicLowerBound,
    ReducedNetwork,
    attractor_trapspace_audit,
    commitment_table,
    cyclic_attractor_lower_bound,
    reduce,
)
from .bnet import load_network, parse_network, write_network
from .dynamics import (
    StateTransitionGraph,
    attractors,
    brute_force_trap_spaces,
    build_stg,
)
from .encode import emit_asp, emit_ilp
from .expr import (
    Expression,
    format_expression,
    parse_expression,
    restrict,
)
from .primes import PrimeImplicantGraph, build_graph
from .randgen import GeneratorConfig, generate
from .solver import (
    ArcSetSolution,
    EnumerationResult,
    enumerate_extremal,
    induced_subspace,
    is_consistent,
    is_stable,
    max_trap_spaces,
    min_trap_spaces,
    steady_states,
)
from .space import (
    BooleanNetwork,
    Subspace,
    image_subspace,
    is_trap_space,
    smallest_enclosing_subspace,
    subspace_leq,
)

__version__ = "0.1.0"
