import types

import trapspaces

# the names ``import trapspaces`` offers; adding or removing one is an API
# change, so it changes this list on purpose
PUBLIC_NAMES = [
    "ArcSetSolution",
    "BooleanNetwork",
    "CommitmentTable",
    "CyclicLowerBound",
    "EnumerationResult",
    "Expression",
    "GeneratorConfig",
    "PrimeImplicantGraph",
    "ReducedNetwork",
    "StateTransitionGraph",
    "Subspace",
    "attractor_trapspace_audit",
    "attractors",
    "brute_force_trap_spaces",
    "build_graph",
    "build_stg",
    "commitment_table",
    "cyclic_attractor_lower_bound",
    "emit_asp",
    "emit_ilp",
    "enumerate_extremal",
    "format_expression",
    "generate",
    "image_subspace",
    "induced_subspace",
    "is_consistent",
    "is_stable",
    "is_trap_space",
    "load_network",
    "max_trap_spaces",
    "min_trap_spaces",
    "parse_expression",
    "parse_network",
    "reduce",
    "restrict",
    "smallest_enclosing_subspace",
    "steady_states",
    "subspace_leq",
    "write_network",
]


def test_public_names():
    # submodules become package attributes once anything imports them, so
    # they are left out
    names = sorted(name for name, value in vars(trapspaces).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
