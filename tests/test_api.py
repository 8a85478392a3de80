import importlib
import pkgutil
import types

import pytest

import trapspaces
from trapspaces._value import Value
from trapspaces.analysis import CyclicLowerBound
from trapspaces.expr import Var
from trapspaces.solver import EnumerationResult

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


# the public members of the two core classes, of ReducedNetwork and of
# StateTransitionGraph, inherited ones included, pinned like the package names
PUBLIC_MEMBERS = {
    "Subspace": [
        "fixed_vars", "free_vars", "from_items", "from_state", "from_str", "is_fixed",
        "is_state", "mask", "n", "num_fixed", "vals", "value", "whole",
    ],
    "BooleanNetwork": [
        "check_supports", "functions", "n", "restricted_constant", "support_cap",
        "supports", "tables", "variables",
    ],
    "ReducedNetwork": ["fixing", "index_map", "network", "parent"],
    "StateTransitionGraph": ["images", "n", "rule", "successors"],
}


@pytest.mark.parametrize("name", sorted(PUBLIC_MEMBERS))
def test_public_members(name):
    members = sorted(member for member in dir(getattr(trapspaces, name))
                     if not member.startswith("_"))
    assert members == PUBLIC_MEMBERS[name]


# one-field, five-field and keyword-built records, each with its fields
SHARED_CONSTRUCTOR = {
    "Var": (Var, {"index": 0}),
    "EnumerationResult": (EnumerationResult, {"solutions": [], "stop": "complete",
                                              "iterations": 1, "nodes": 2, "elapsed": 0.5}),
    "CyclicLowerBound": (CyclicLowerBound, {"count": 0, "witnesses": [],
                                            "oscillating_candidates": [], "stop": "complete"}),
}


@pytest.mark.parametrize("name", sorted(SHARED_CONSTRUCTOR))
def test_shared_constructor_binds_by_position_or_name(name):
    cls, fields = SHARED_CONSTRUCTOR[name]
    values = list(fields.values())
    value = cls(**fields)
    assert value == cls(*values) == cls(*values[:1], **dict(list(fields.items())[1:]))
    assert [getattr(value, field) for field in fields] == values


@pytest.mark.parametrize("name", sorted(SHARED_CONSTRUCTOR))
def test_shared_constructor_refuses_wrong_arity(name):
    cls, fields = SHARED_CONSTRUCTOR[name]
    values = list(fields.values())
    first = next(iter(fields))
    bad_calls = [
        ((), dict(list(fields.items())[1:])),  # a field missing
        ((*values, None), {}),  # an extra positional argument
        ((), {**fields, "unknown": None}),  # an unknown keyword
        ((values[0],), fields),  # the first field by position and by name
    ]
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError, match=rf"^{name}\(\) takes the fields \('{first}',"):
            cls(*args, **kwargs)


def _value_classes(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_classes(sub)


def test_only_checking_or_defaulting_classes_write_a_constructor():
    # a constructor that only binds its fields is the shared Value.__init__;
    # the classes below check their arguments or have defaults
    for info in pkgutil.iter_modules(trapspaces.__path__):
        importlib.import_module(f"trapspaces.{info.name}")
    own = sorted(cls.__name__ for cls in _value_classes(Value)
                 if cls.__module__.startswith("trapspaces.") and "__init__" in vars(cls))
    assert own == sorted(["Subspace", "BooleanNetwork", "Const", "And", "Or",
                          "GeneratorConfig", "_Result"])
