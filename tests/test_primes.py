import hashlib
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapspaces import parse_network
from trapspaces.errors import SupportTooLargeError
from trapspaces.expr import And, Const, Not, Or, Var, constant_value, evaluate, parse_expression
from trapspaces.primes import (
    ArcMasks,
    HyperArc,
    PrimeImplicantGraph,
    _primes,
    build_graph,
    c_prime_implicants,
)
from trapspaces.space import BooleanNetwork, Subspace, referenced_states, subspace_lt

from conftest import corpus, dense, expressions

VOCAB = ("v1", "v2", "v3", "v4")


def primes_of(text, c, target=0, n=4, vocab=VOCAB):
    f = parse_expression(text, vocab)
    return {str(pi.subspace) for pi in c_prime_implicants(f, c, target, n)}


class TestCPrimeImplicants:
    def test_disjunction(self):
        assert primes_of("v1 | v2", 1) == {"1---", "-1--"}
        assert primes_of("v1 | v2", 0) == {"00--"}

    def test_conjunction(self):
        f = "v1 & v4"
        assert primes_of(f, 1, target=1) == {"1--1"}
        assert primes_of(f, 0, target=1) == {"0---", "---0"}

    def test_negated_conjunct(self):
        f = "!v1 & v4"
        assert primes_of(f, 1, target=2) == {"0--1"}
        assert primes_of(f, 0, target=2) == {"1---", "---0"}

    def test_negation(self):
        assert primes_of("!v3", 1, target=3) == {"--0-"}
        assert primes_of("!v3", 0, target=3) == {"--1-"}

    def test_constant_function_yields_self_loop(self):
        f = parse_expression("1", VOCAB)
        ones = c_prime_implicants(f, 1, 2, 4)
        assert [str(pi.subspace) for pi in ones] == ["--1-"]
        assert c_prime_implicants(f, 0, 2, 4) == []

    def test_hidden_constant_function(self):
        f = parse_expression("v1 | !v1", VOCAB)
        assert primes_of("v1 | !v1", 1) == {"1---"}
        assert c_prime_implicants(f, 0, 0, 4) == []

    def test_fictitious_variable_never_appears(self):
        # v2 is syntactic but not essential
        assert primes_of("v1 & (v2 | !v2)", 1) == {"1---"}

    def test_xor_shape(self):
        assert primes_of("(v1 & !v2) | (!v1 & v2)", 1) == {"10--", "01--"}

    def test_support_cap(self):
        names = tuple(f"x{i}" for i in range(6))
        f = parse_expression(" | ".join(names), names)
        with pytest.raises(SupportTooLargeError):
            c_prime_implicants(f, 1, 0, 6, cap=5)

    def test_support_cap_counts_fictitious_variables(self):
        # six syntactic variables, only x0 essential: the cap still applies
        names = tuple(f"x{i}" for i in range(6))
        f = parse_expression("x0 | (x1 & !x1 & x2 & x3 & x4 & x5)", names)
        assert [str(pi.subspace) for pi in c_prime_implicants(f, 1, 0, 6)] == ["1-----"]
        with pytest.raises(SupportTooLargeError):
            c_prime_implicants(f, 1, 0, 6, cap=5)
        net = BooleanNetwork(names, (f,) * 6)
        with pytest.raises(SupportTooLargeError):
            build_graph(net, cap=5)

    def test_against_brute_force_oracle(self):
        # soundness, primality and coverage for every non-constant function
        # of a corpus (constant functions use the self-loop convention,
        # pinned above)
        from trapspaces.expr import constant_value

        for net in corpus(30, sizes=(3, 4, 5), seed0=400):
            for i, f in enumerate(net.functions):
                if constant_value(f) is not None:
                    continue
                for c in (0, 1):
                    got = {
                        pi.subspace for pi in c_prime_implicants(f, c, i, net.n)
                    }
                    assert got == _oracle_primes(f, c, net.n)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5), c=st.integers(0, 1))
    def test_random_expressions_against_brute_force_oracle(self, data, n, c):
        f = data.draw(expressions(n))
        target = data.draw(st.integers(0, n - 1))
        got = {pi.subspace for pi in c_prime_implicants(f, c, target, n)}
        constant = constant_value(f)
        if constant is None:
            assert got == _oracle_primes(f, c, n)
        else:
            # the self-loop convention for constant functions
            assert got == ({Subspace.from_items(n, [(target, c)])} if constant == c else set())


def _oracle_primes(f, c, n):
    """All maximal subspaces on which f is constant c, by exhaustive search."""
    implicants = []
    for choices in product((None, 0, 1), repeat=n):
        p = Subspace.from_items(
            n, [(i, v) for i, v in enumerate(choices) if v is not None]
        )
        if all(
            evaluate(f, Subspace.from_state(n, x)) == c
            for x in referenced_states(p)
        ):
            implicants.append(p)
    return {
        p for p in implicants if not any(subspace_lt(p, q) for q in implicants)
    }


def _table_expression(table, k, first=0):
    """An expression over v_first..v_(first+k-1) whose truth table is
    ``table``, with row bit k-1-j for v_(first+j): the Shannon expansion on
    its first variable, then on the next, and so on."""
    if table in (0, (1 << (1 << k)) - 1):
        return Const(table & 1)
    half = 1 << (k - 1)
    f0, f1 = table & ((1 << half) - 1), table >> half
    x = Var(first)
    return Or((And((Not(x), _table_expression(f0, k - 1, first + 1))),
               And((x, _table_expression(f1, k - 1, first + 1)))))


class TestPrimeCubes:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), k=st.integers(1, 6))
    def test_lexicographic_tail_order_and_oracle(self, data, k):
        table = data.draw(st.integers(0, (1 << (1 << k)) - 1))
        cubes = _primes(table, k, {})
        # row bit k-1-j is v_j, so a cube (mask, vals) is the subspace
        # (k, mask, vals) and its tail lists v_0, v_1, ... in that order
        tails = [tuple((j, (vals >> (k - 1 - j)) & 1) for j in range(k)
                       if (mask >> (k - 1 - j)) & 1) for mask, vals in cubes]
        assert tails == sorted(set(tails))
        f = _table_expression(table, k)
        assert {Subspace(k, mask, vals) for mask, vals in cubes} == _oracle_primes(f, 1, k)


class TestHyperArc:
    def test_empty_tail_rejected(self):
        with pytest.raises(ValueError):
            HyperArc(1, (), (0, 1))

    def test_duplicate_tail_variable_rejected(self):
        with pytest.raises(ValueError):
            HyperArc(1, ((0, 0), (0, 1)), (1, 1))


class TestArcMasks:
    def test_empty_tail_rejected(self):
        with pytest.raises(ValueError):
            ArcMasks(2, [1], [0])

    def test_both_values_of_a_tail_variable_rejected(self):
        # literal (v, c) is bit 2*v + c: 0b11 holds (0, 0) and (0, 1)
        with pytest.raises(ValueError):
            ArcMasks(2, [3], [0b11])


class TestGraphOnRunningExample:
    # the full eleven-arc hypergraph, pinned arc by arc
    EXPECTED = [
        (1, ((0, 1),), (0, 1)),
        (2, ((1, 1),), (0, 1)),
        (3, ((0, 0), (1, 0)), (0, 0)),
        (4, ((0, 1), (3, 1)), (1, 1)),
        (5, ((0, 0),), (1, 0)),
        (6, ((3, 0),), (1, 0)),
        (7, ((0, 0), (3, 1)), (2, 1)),
        (8, ((0, 1),), (2, 0)),
        (9, ((3, 0),), (2, 0)),
        (10, ((2, 0),), (3, 1)),
        (11, ((2, 1),), (3, 0)),
    ]

    def test_arc_table(self, example_graph):
        assert len(example_graph.arcs) == 11
        for arc_id, tail, head in self.EXPECTED:
            arc = example_graph.arc(arc_id)
            assert arc.id == arc_id
            assert arc.tail == tail
            assert arc.head == head

    def test_arc_view_rebuilt_from_the_masks(self, example_net, example_graph):
        g = PrimeImplicantGraph(example_net, example_graph.masks)
        assert g.arcs == tuple(HyperArc(*row) for row in self.EXPECTED)

    def test_by_head_index(self, example_graph):
        assert example_graph.by_head[(0, 1)] == (1, 2)
        assert example_graph.by_head[(0, 0)] == (3,)
        assert example_graph.by_head[(1, 1)] == (4,)
        assert example_graph.by_head[(1, 0)] == (5, 6)
        assert example_graph.by_head[(2, 1)] == (7,)
        assert example_graph.by_head[(2, 0)] == (8, 9)
        assert example_graph.by_head[(3, 1)] == (10,)
        assert example_graph.by_head[(3, 0)] == (11,)

    def test_unknown_arc_id(self, example_graph):
        with pytest.raises(KeyError):
            example_graph.arc(0)
        with pytest.raises(KeyError):
            example_graph.arc(12)

    def test_determinism(self, example_net, example_graph):
        again = build_graph(example_net)
        assert again.arcs == example_graph.arcs


class TestGraphGeneral:
    def test_identity_network_self_arcs(self):
        net = BooleanNetwork.from_strings([("a", "a")])
        g = build_graph(net)
        assert [(a.tail, a.head) for a in g.arcs] == [
            (((0, 1),), (0, 1)),
            (((0, 0),), (0, 0)),
        ]

    def test_constant_network(self):
        net = parse_network("targets, factors\na, 1\nb, a\n")
        g = build_graph(net)
        assert [(a.tail, a.head) for a in g.arcs] == [
            (((0, 1),), (0, 1)),
            (((0, 1),), (1, 1)),
            (((0, 0),), (1, 0)),
        ]

    def test_arc_order_value_one_before_zero_per_target(self):
        for net in corpus(10, sizes=(4, 5), seed0=500):
            g = build_graph(net)
            keys = [(a.head[0], 1 - a.head[1], a.tail) for a in g.arcs]
            assert keys == sorted(keys)
            assert [a.id for a in g.arcs] == list(range(1, len(g.arcs) + 1))


# SHA-256 of the (id, tail, head) arc lists of build_graph on corpus(200)
# and the eight dense-export networks, recorded from the earlier
# Quine-McCluskey prime generation so that it pins the arcs independently
# of the Shannon expansion that replaced it
GOLDEN_ARCS_SHA256 = "65c57b9e9859814478282e3b44e7435ac4c422c351d7fb8ea8105af57874069a"


def test_golden_arc_hash():
    digest = hashlib.sha256()
    for net in [*corpus(200), *dense()]:
        arcs = build_graph(net).arcs
        digest.update(repr([(a.id, a.tail, a.head) for a in arcs]).encode())
    assert digest.hexdigest() == GOLDEN_ARCS_SHA256
