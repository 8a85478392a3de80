import hashlib
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trapspaces import parse_network
from trapspaces.errors import SupportTooLargeError
from trapspaces.expr import (
    DEFAULT_SUPPORT_CAP,
    _column,
    parse_expression,
    syntactic_support,
    truth_table,
)
from trapspaces.primes import (
    PrimeImplicantGraph,
    _implicant_litmasks,
    _prime_table,
    build_graph,
    literals,
)
from trapspaces.space import BooleanNetwork, Subspace, subspace_leq

from conftest import corpus, dense, expressions
from reference import constant_value, evaluate, referenced_states

VOCAB = ("v1", "v2", "v3", "v4")


def prime_spaces(f, c, target, n, cap=DEFAULT_SUPPORT_CAP):
    """The c-prime implicants of f as subspaces over n variables, in tail
    order."""
    support = tuple(sorted(syntactic_support(f)))
    table = truth_table(f, support, cap)
    return [Subspace.from_items(n, literals(lits))
            for lits in _implicant_litmasks(support, table, target, c, {})]


def primes_of(text, c, target=0, n=4, vocab=VOCAB):
    f = parse_expression(text, vocab)
    return {str(p) for p in prime_spaces(f, c, target, n)}


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
        ones = prime_spaces(f, 1, 2, 4)
        assert [str(p) for p in ones] == ["--1-"]
        assert prime_spaces(f, 0, 2, 4) == []

    def test_hidden_constant_function(self):
        f = parse_expression("v1 | !v1", VOCAB)
        assert primes_of("v1 | !v1", 1) == {"1---"}
        assert prime_spaces(f, 0, 0, 4) == []

    def test_fictitious_variable_never_appears(self):
        # v2 is syntactic but not essential
        assert primes_of("v1 & (v2 | !v2)", 1) == {"1---"}

    def test_xor_shape(self):
        assert primes_of("(v1 & !v2) | (!v1 & v2)", 1) == {"10--", "01--"}

    def test_support_cap(self):
        names = tuple(f"x{i}" for i in range(6))
        f = parse_expression(" | ".join(names), names)
        with pytest.raises(SupportTooLargeError):
            prime_spaces(f, 1, 0, 6, cap=5)

    def test_support_cap_counts_fictitious_variables(self):
        # six syntactic variables, only x0 essential: the cap still applies
        names = tuple(f"x{i}" for i in range(6))
        f = parse_expression("x0 | (x1 & !x1 & x2 & x3 & x4 & x5)", names)
        assert [str(p) for p in prime_spaces(f, 1, 0, 6)] == ["1-----"]
        with pytest.raises(SupportTooLargeError):
            prime_spaces(f, 1, 0, 6, cap=5)
        net = BooleanNetwork(names, (f,) * 6, support_cap=5)
        with pytest.raises(SupportTooLargeError):
            build_graph(net)

    def test_against_brute_force_oracle(self):
        # soundness, primality and coverage for every non-constant function
        # of a corpus (constant functions use the self-loop convention,
        # pinned above)
        for net in corpus(30, sizes=(3, 4, 5), seed0=400):
            for i, f in enumerate(net.functions):
                if constant_value(f) is not None:
                    continue
                for c in (0, 1):
                    got = set(prime_spaces(f, c, i, net.n))
                    assert got == _oracle_primes(f, c, net.n)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5), c=st.integers(0, 1))
    def test_random_expressions_against_brute_force_oracle(self, data, n, c):
        f = data.draw(expressions(n))
        target = data.draw(st.integers(0, n - 1))
        got = set(prime_spaces(f, c, target, n))
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
        p for p in implicants
        if not any(p != q and subspace_leq(p, q) for q in implicants)
    }


def _cube_rows(columns, mask, vals):
    """The row set of the cube (mask, vals) over the row bits of a truth
    table whose row bit b has the table ``columns[b]``."""
    rows = (1 << (1 << len(columns))) - 1
    for b, column in enumerate(columns):
        if mask >> b & 1:
            rows &= column if vals >> b & 1 else ~column
    return rows


def _litmask_cube(k, lits):
    """A literal mask over the variables 0..k-1 as a cube (mask, vals) over
    row bits, row bit k-1-v holding the variable v."""
    mask = vals = 0
    for v, d in literals(lits):
        mask |= 1 << (k - 1 - v)
        vals |= d << (k - 1 - v)
    return mask, vals


def _tails(lits):
    return [literals(t) for t in lits]


class TestPrimeCubes:
    # the kernel against a definition read straight off the truth table: a
    # cube is a prime iff all its rows are true and freeing any one of its
    # fixed row bits takes in a false row

    @staticmethod
    def _table_primes(table, k):
        columns = [_column(k, b) for b in range(k)]
        implicant = {}
        for digits in product((0, 1, 2), repeat=k):
            mask = sum(1 << b for b, d in enumerate(digits) if d < 2)
            vals = sum(1 << b for b, d in enumerate(digits) if d == 1)
            implicant[mask, vals] = not _cube_rows(columns, mask, vals) & ~table
        return {
            (mask, vals) for (mask, vals), holds in implicant.items()
            if holds and not any(
                implicant[mask ^ 1 << b, vals & ~(1 << b)]
                for b in range(k) if mask >> b & 1)
        }

    def _check(self, table, k):
        want = self._table_primes(table, k)
        bits = _prime_table(table, k, {})
        assert bits < 1 << 3 ** k
        cubes = set()
        for q in range(3 ** k):
            if bits >> q & 1:
                mask = vals = 0
                for b in range(k):
                    q, d = divmod(q, 3)
                    if d < 2:
                        mask |= 1 << b
                        vals |= d << b
                cubes.add((mask, vals))
        assert cubes == want
        lits = _implicant_litmasks(tuple(range(k)), table, k, 1, {})
        if table == (1 << (1 << k)) - 1:
            # a tautology's one prime is the empty cube: the self-loop literal
            assert lits == [1 << (2 * k + 1)]
        else:
            assert {_litmask_cube(k, t) for t in lits} == want
        tails = _tails(lits)
        assert tails == sorted(set(tails))

    @pytest.mark.parametrize("k", range(8))
    def test_constant_tables(self, k):
        self._check(0, k)
        self._check((1 << (1 << k)) - 1, k)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), k=st.integers(0, 7))
    def test_lexicographic_tail_order_and_oracle(self, data, k):
        self._check(data.draw(st.integers(0, (1 << (1 << k)) - 1)), k)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), k=st.integers(8, 12))
    def test_certificate_at_wide_supports(self, data, k):
        # a certificate that does not depend on how the primes were found:
        # every cube is an implicant, freeing any one literal leaves the
        # function, every true row is covered, and the cubes come in
        # lexicographic tail order
        full = (1 << (1 << k)) - 1
        # AND or OR of random tables gives sparse and dense functions too
        draws = data.draw(st.lists(st.integers(0, full), min_size=1, max_size=3))
        table = draws[0]
        for other in draws[1:]:
            table = table & other if data.draw(st.booleans()) else table | other
        assume(table != full)  # a tautology has the empty prime, pinned above
        lits = _implicant_litmasks(tuple(range(k)), table, k, 1, {})
        columns = [_column(k, b) for b in range(k)]
        covered = 0
        for t in lits:
            mask, vals = _litmask_cube(k, t)
            rows = _cube_rows(columns, mask, vals)
            assert not rows & ~table
            for b in range(k):
                if mask >> b & 1:
                    assert _cube_rows(columns, mask ^ 1 << b, vals & ~(1 << b)) & ~table
            covered |= rows
        assert covered == table
        tails = _tails(lits)
        assert tails == sorted(set(tails))


def reference_masks(g):
    """``heads_mask``, ``tailed_by`` and ``involving`` of ``g``, built arc by
    arc from ``head_lit`` and ``tail_litmask``: one b"0"/b"1" character per
    arc, read as a binary number with arc 0 last."""
    def chars(count):
        return [bytearray(b"0" * g.m) for _ in range(count)]

    heads, tails, involving = chars(2 * g.n), chars(2 * g.n), chars(g.n)
    for a, (h, t) in enumerate(zip(g.head_lit, g.tail_litmask)):
        heads[h][a] = involving[h >> 1][a] = ord("1")
        for v, c in literals(t):
            tails[2 * v + c][a] = involving[v][a] = ord("1")
    return tuple([int(row[::-1] or b"0", 2) for row in rows]
                 for rows in (heads, tails, involving))


def assert_masks_match(g):
    heads, tails, involving = reference_masks(g)
    assert g.heads_mask == heads
    assert g.search_masks() == (tails, involving)


def random_graph(n, m, seed, sort_heads=True):
    """A graph of m random arcs over n variables, with tails of one to three
    literals; heads in arc order (runs of equal heads) or shuffled."""
    rng = random.Random(seed)
    net = parse_network("targets, factors\n" + "".join(f"v{i}, v{i}\n" for i in range(n)))
    head_lit = [rng.randrange(2 * n) for _ in range(m)]
    if sort_heads:
        head_lit.sort()
    tail_litmask = []
    for _ in range(m):
        tail_vars = rng.sample(range(n), rng.randint(1, min(3, n)))
        tail_litmask.append(sum(1 << (2 * v + rng.getrandbits(1)) for v in tail_vars))
    return PrimeImplicantGraph(net, head_lit, tail_litmask)


class TestArcMasks:
    # the tail checks of the graph constructor
    NET = parse_network("targets, factors\na, a\nb, b\n")

    def test_empty_tail_rejected(self):
        with pytest.raises(ValueError):
            PrimeImplicantGraph(self.NET, [1], [0])

    def test_both_values_of_a_tail_variable_rejected(self):
        # literal (v, c) is bit 2*v + c: 0b11 holds (0, 0) and (0, 1)
        with pytest.raises(ValueError):
            PrimeImplicantGraph(self.NET, [3], [0b11])

    # the masks against a reference built arc by arc
    def test_masks_of_built_graphs(self, example_graph):
        assert_masks_match(example_graph)
        for net in [*corpus(200), *dense()]:
            assert_masks_match(build_graph(net))

    @pytest.mark.parametrize("n, m, sort_heads", [
        (5, 77, True),  # m and 2n not multiples of 8
        (130, 77, True),  # literal indices above 255, runs of one arc
        (130, 301, False),  # heads in no order: a run per arc or two
        (4, 300, True),  # five chunks, head runs cut at chunk ends
    ])
    def test_masks_of_random_graphs(self, n, m, sort_heads):
        assert_masks_match(random_graph(n, m, seed=n + m, sort_heads=sort_heads))

    def test_masks_of_one_arc_graph(self):
        # b <- a: no arc touches the literal (a, 0)
        g = PrimeImplicantGraph(self.NET, [3], [0b10])
        assert g.heads_mask == [0, 0, 0, 1]
        assert g.search_masks() == ([0, 1, 0, 0], [1, 1])
        assert_masks_match(g)

    def test_masks_of_wide_functions(self):
        # 12 random functions of in-degree 12, about 69,000 arcs in chunks
        # of about 2,900
        rng = random.Random(12)
        head_lit, tail_litmask, memo = [], [], {}
        for i in range(12):
            table = rng.getrandbits(1 << 12)
            for c in (1, 0):
                tails = _implicant_litmasks(tuple(range(12)), table, i, c, memo)
                head_lit += [2 * i + c] * len(tails)
                tail_litmask += tails
        net = parse_network("targets, factors\n" + "".join(f"v{i}, v{i}\n" for i in range(12)))
        g = PrimeImplicantGraph(net, head_lit, tail_litmask)
        assert g.m > 60_000
        assert_masks_match(g)


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
        assert example_graph.m == 11
        assert list(example_graph.arcs) == self.EXPECTED

    def test_determinism(self, example_net, example_graph):
        again = build_graph(example_net)
        assert again.arcs == example_graph.arcs


class TestGraphGeneral:
    def test_identity_network_self_arcs(self):
        net = parse_network("targets, factors\na, a\n")
        g = build_graph(net)
        assert [(tail, head) for _, tail, head in g.arcs] == [
            (((0, 1),), (0, 1)),
            (((0, 0),), (0, 0)),
        ]

    def test_constant_network(self):
        net = parse_network("targets, factors\na, 1\nb, a\n")
        g = build_graph(net)
        assert [(tail, head) for _, tail, head in g.arcs] == [
            (((0, 1),), (0, 1)),
            (((0, 1),), (1, 1)),
            (((0, 0),), (1, 0)),
        ]

    def test_arc_order_value_one_before_zero_per_target(self):
        for net in corpus(10, sizes=(4, 5), seed0=500):
            g = build_graph(net)
            arcs = g.arcs
            keys = [(v, 1 - c, tail) for _, tail, (v, c) in arcs]
            assert keys == sorted(keys)
            assert [a for a, _, _ in arcs] == list(range(1, g.m + 1))


# SHA-256 of the (id, tail, head) arc lists of build_graph on corpus(200)
# and the eight dense-export networks, recorded from the earlier
# Quine-McCluskey prime generation so that it pins the arcs independently
# of the cube-table kernel that now finds the primes
GOLDEN_ARCS_SHA256 = "65c57b9e9859814478282e3b44e7435ac4c422c351d7fb8ea8105af57874069a"


def test_golden_arc_hash():
    digest = hashlib.sha256()
    for net in [*corpus(200), *dense()]:
        digest.update(repr(list(build_graph(net).arcs)).encode())
    assert digest.hexdigest() == GOLDEN_ARCS_SHA256
