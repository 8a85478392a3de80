import copy
import os
import pickle

import pytest
from hypothesis import strategies as st

from trapspaces import GeneratorConfig, generate, parse_network
from trapspaces import expr

EXAMPLE_TEXT = """\
targets, factors
v1, v1 | v2
v2, v1 & v4
v3, !v1 & v4
v4, !v3
"""

NEGATION_CYCLE_TEXT = """\
targets, factors
v1, !v2
v2, v1
"""


@pytest.fixture(scope="session")
def example_net():
    return parse_network(EXAMPLE_TEXT)


@pytest.fixture(scope="session")
def example_graph(example_net):
    from trapspaces import build_graph

    return build_graph(example_net)


@pytest.fixture(scope="session")
def negation_cycle():
    return parse_network(NEGATION_CYCLE_TEXT)


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.bnet"
    path.write_text(EXAMPLE_TEXT, encoding="utf-8")
    return str(path)


def corpus(count, sizes=(4, 5, 6, 7, 8, 9, 10), k=3.0, seed0=0):
    """Deterministic stream of random networks cycling through the sizes."""
    for i in range(count):
        n = sizes[i % len(sizes)]
        yield generate(GeneratorConfig(n=n, k=k, seed=seed0 + i))


def dense():
    """The eight networks of the dense-export benchmark workload: n=10, mean
    in-degree 5, at most 6 inputs per function, seeds 0-7."""
    return [generate(GeneratorConfig(n=10, k=5, seed=s, degree_cap=6)) for s in range(8)]


def expressions(n):
    """Random ASTs: nested Not/And/Or over constants and repeated variables,
    with hidden constants (a & !a, a | !a) and fictitious variables
    (a & (b | !b)) planted in subtrees."""
    leaves = st.one_of(
        st.builds(expr.Var, st.integers(0, n - 1)),
        st.builds(expr.Const, st.integers(0, 1)),
    )

    def extend(inner):
        children = st.lists(inner, min_size=2, max_size=4).map(tuple)
        return st.one_of(
            st.builds(expr.Not, inner),
            st.builds(expr.And, children),
            st.builds(expr.Or, children),
            st.builds(lambda a: expr.And((a, expr.Not(a))), inner),
            st.builds(lambda a: expr.Or((expr.Not(a), a)), inner),
            st.builds(lambda a, b: expr.And((a, expr.Or((b, expr.Not(b))))), inner, inner),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def literal_nodes(f):
    """Variable index -> the distinct ``Var`` and ``Not(Var)`` node objects
    (by identity) found anywhere in ``f``."""
    nodes = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, expr.Var):
            nodes.setdefault(g.index, {})[id(g)] = g
        elif isinstance(g, expr.Not):
            if isinstance(g.child, expr.Var):
                nodes.setdefault(g.child.index, {})[id(g)] = g
            stack.append(g.child)
        elif isinstance(g, (expr.And, expr.Or)):
            stack.extend(g.children)
    return nodes


def assert_value_semantics(by_keyword, positional, text, different):
    """Check a frozen value class on fresh instances: ``by_keyword()`` and
    ``positional()`` build one value, ``text`` is its exact repr and
    ``different`` a value that differs from it in one field. Equal values
    hash equally, assignment and deletion raise AttributeError, and every
    pickle protocol and ``copy.deepcopy`` give back an equal value."""
    value = by_keyword()
    assert value == positional() and not value != positional()
    assert hash(value) == hash(positional())
    assert value != different and not value == different
    assert repr(value) == text
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown = 1
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)] + [copy.deepcopy(value)]
    for copied in copies:
        assert copied is not value and copied == value and hash(copied) == hash(value)
        assert repr(copied) == text
        for name in type(value).__slots__:
            assert getattr(copied, name) == getattr(value, name)


def fixture_path(name):
    return os.path.join(os.path.dirname(__file__), "fixtures", name)
