import random
from itertools import product

import pytest

from trapspaces import parse_network
from trapspaces.analysis import CyclicLowerBound
from trapspaces.errors import TrapSpacesError
from trapspaces.expr import Not, Var
from trapspaces.randgen import GeneratorConfig
from trapspaces.solver import ArcSetSolution, EnumerationResult
from trapspaces.space import (
    BooleanNetwork,
    Subspace,
    image_subspace,
    is_trap_space,
    smallest_enclosing_subspace,
    subspace_leq,
)

from conftest import assert_value_semantics, corpus
from reference import (
    contains_state,
    evaluate,
    image_int,
    image_state,
    referenced_states,
    state_int,
)

S = Subspace.from_str


def all_subspaces(n):
    """The 3^n subspaces over n variables."""
    return [S("".join(choices)) for choices in product("01-", repeat=n)]


def small_corpus_networks():
    return [net for net in corpus(200) if net.n <= 5]


class TestSubspaceBasics:
    def test_text_round_trip(self):
        for text in ("1-01", "----", "0000", "1111", "-0-1"):
            assert str(S(text)) == text

    def test_text_round_trip_every_subspace(self):
        for n in range(1, 6):
            for p in all_subspaces(n):
                assert Subspace.from_str(str(p)) == p

    def test_canonical_form_rejects_value_on_free_bit(self):
        with pytest.raises(ValueError):
            Subspace(4, 0b1000, 0b1100)

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError, match="at least one variable"):
            Subspace(0, 0, 0)

    def test_bits_outside_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            Subspace(2, 0b100, 0)

    def test_bad_character(self):
        with pytest.raises(ValueError):
            S("1-x1")

    def test_from_items_matches_from_str(self):
        assert Subspace.from_items(4, [(0, 1), (2, 0), (3, 1)]) == S("1-01")

    def test_fixed_and_free_vars(self):
        p = S("1-01")
        assert p.fixed_vars() == [0, 2, 3]
        assert p.free_vars() == [1]
        assert p.num_fixed == 3
        assert [(i, p.value(i)) for i in p.fixed_vars()] == [(0, 1), (2, 0), (3, 1)]

    def test_state_properties(self):
        x = S("1101")
        assert x.is_state and state_int(x) == 0b1101
        assert not S("1-01").is_state
        with pytest.raises(TrapSpacesError):
            state_int(S("1-01"))


def _tabulated(net):
    net.tables()
    return net


VALUES = {
    "Subspace": (lambda: Subspace(n=4, mask=6, vals=2), lambda: Subspace(4, 6, 2),
                 "Subspace(n=4, mask=6, vals=2)", Subspace(4, 6, 0)),
    # equality ignores support_cap; the copies keep the tables
    "BooleanNetwork": (
        lambda: _tabulated(BooleanNetwork(variables=("a", "b"),
                                          functions=(Var(index=1), Not(child=Var(index=0))),
                                          support_cap=4)),
        lambda: BooleanNetwork(("a", "b"), (Var(1), Not(Var(0)))),
        "BooleanNetwork(variables=('a', 'b'), functions=(Var(index=1), Not(child=Var(index=0))))",
        BooleanNetwork(("a", "b"), (Var(1), Var(0))),
    ),
    "ArcSetSolution": (lambda: ArcSetSolution(arc_ids=(1, 3), induced=Subspace(2, 2, 2)),
                       lambda: ArcSetSolution((1, 3), S("1-")),
                       "ArcSetSolution(arc_ids=(1, 3), induced=Subspace(n=2, mask=2, vals=2))",
                       ArcSetSolution((1,), S("1-"))),
    "GeneratorConfig": (lambda: GeneratorConfig(n=5, k=3.0, seed=0, degree_cap=12),
                        lambda: GeneratorConfig(5),
                        "GeneratorConfig(n=5, k=3.0, seed=0, degree_cap=12)",
                        GeneratorConfig(5, seed=1)),
}


class TestValueSemantics:
    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_frozen_values(self, name):
        assert_value_semantics(*VALUES[name])

    def test_network_equality_ignores_support_cap(self):
        net = BooleanNetwork(("a",), (Var(0),), support_cap=1)
        assert net == BooleanNetwork(("a",), (Var(0),)) and net.support_cap == 1

    def test_records_compare_by_fields_and_are_unhashable(self):
        def result(elapsed):
            return EnumerationResult([ArcSetSolution((), S("--"))], "complete", 1, 2, elapsed)

        assert result(0.5) == result(0.5) and result(0.5) != result(0.25)
        bound = CyclicLowerBound(count=1, witnesses=[S("1-")], oscillating_candidates=[["b"]],
                                 stop="complete")
        assert bound == CyclicLowerBound(1, [S("1-")], [["b"]], "complete")
        assert repr(bound) == ("CyclicLowerBound(count=1, witnesses=[Subspace(n=2, mask=2, "
                               "vals=2)], oscillating_candidates=[['b']], stop='complete')")
        for record, field in ((result(0.5), "stop"), (bound, "stop")):
            with pytest.raises(TypeError):
                hash(record)
            with pytest.raises(AttributeError):
                setattr(record, field, None)


class TestPartialOrder:
    def test_examples(self):
        assert subspace_leq(S("1-01"), S("1--1"))
        assert not subspace_leq(S("1--1"), S("1-01"))
        assert subspace_leq(S("0000"), S("----"))
        assert not subspace_leq(S("--1-"), S("-0--"))

    def test_different_vocabularies_rejected(self):
        with pytest.raises(TrapSpacesError):
            subspace_leq(S("1-"), S("1-1"))

    def test_agrees_with_state_set_containment_exhaustively(self):
        # all 27 x 27 subspace pairs over n=3
        all_spaces = []
        for choices in product("01-", repeat=3):
            all_spaces.append(S("".join(choices)))
        for p in all_spaces:
            sp = set(referenced_states(p))
            for q in all_spaces:
                sq = set(referenced_states(q))
                assert subspace_leq(p, q) == (sp <= sq)


class TestReferencedStates:
    def test_examples(self):
        assert referenced_states(S("1-01")) == [0b1001, 0b1101]
        assert referenced_states(S("11--")) == [0b1100, 0b1101, 0b1110, 0b1111]
        assert len(referenced_states(S("----"))) == 16


class TestEnclosingSubspace:
    def test_examples(self):
        assert smallest_enclosing_subspace([0b1001, 0b1101], 4) == S("1-01")
        assert smallest_enclosing_subspace([0b0110], 4) == S("0110")
        assert smallest_enclosing_subspace([0b0000, 0b1111], 4) == S("----")

    def test_empty_rejected(self):
        with pytest.raises(TrapSpacesError):
            smallest_enclosing_subspace([], 4)

    def test_galois_round_trip(self):
        # enclosing(states(p)) == p for every subspace
        rng = random.Random(5)
        for _ in range(100):
            items = [(i, rng.randrange(2)) for i in range(6) if rng.random() < 0.5]
            p = Subspace.from_items(6, items)
            assert smallest_enclosing_subspace(referenced_states(p), 6) == p


class TestNetworkImages:
    def test_image_state_examples(self, example_net):
        assert image_state(example_net, S("0000")) == S("0001")
        assert image_state(example_net, S("0110")) == S("1000")
        assert image_state(example_net, S("1111")) == S("1100")

    def test_image_subspace_examples(self, example_net):
        assert image_subspace(example_net, S("1---")) == S("1-0-")
        assert image_subspace(example_net, S("00--")) == S("00--")
        assert image_subspace(example_net, S("--11")) == S("---0")

    @pytest.mark.parametrize("text", ["1-", "-----1"])
    def test_pattern_of_another_width_rejected(self, example_net, text):
        message = f"pattern has {len(text)} positions but the network has 4 variables"
        for check in (is_trap_space, image_subspace):
            with pytest.raises(TrapSpacesError, match=message):
                check(example_net, S(text))

    def test_image_of_state_agrees_with_image_state(self, example_net):
        for x in range(16):
            p = Subspace.from_state(4, x)
            assert image_subspace(example_net, p) == image_state(example_net, p)

    def test_is_trap_space_examples(self, example_net):
        for text in ("----", "1---", "1-0-", "1-01", "00--", "1101"):
            assert is_trap_space(example_net, S(text)), text
        for text in ("0---", "--1-", "0000", "--11", "0011"):
            assert not is_trap_space(example_net, S(text)), text

    def test_trap_space_iff_no_transition_leaves(self, example_net):
        # p >= F[p] must coincide with "every state of p maps into p"
        for choices in product("01-", repeat=4):
            p = S("".join(choices))
            stays = all(
                contains_state(p, image_int(example_net, x))
                for x in referenced_states(p)
            )
            assert is_trap_space(example_net, p) == stays

    def test_restricted_constant(self, example_net):
        # f2 = v1 & v4 under 1--- collapses to v4: not constant
        assert example_net.restricted_constant(1, S("1---")) is None
        # f1 = v1 | v2 under 00-- is the constant 0
        assert example_net.restricted_constant(0, S("00--")) == 0
        assert example_net.restricted_constant(3, S("--0-")) == 1

    def test_restrictions_match_evaluation_on_every_subspace(self):
        # n <= 5 networks of corpus(200), all 3^n subspaces each: f_i[p] is
        # the common value of f_i over the states of p, or None
        nets = small_corpus_networks()
        assert len(nets) > 50
        for net in nets:
            n = net.n
            values = [[evaluate(f, Subspace.from_state(n, x)) for x in range(1 << n)]
                      for f in net.functions]
            for p in all_subspaces(n):
                states = referenced_states(p)
                expected = []
                for column in values:
                    seen = {column[x] for x in states}
                    expected.append(seen.pop() if len(seen) == 1 else None)
                got = [net.restricted_constant(i, p) for i in range(n)]
                assert got == expected, (str(p), net)
                image = Subspace.from_items(
                    n, [(i, c) for i, c in enumerate(expected) if c is not None])
                assert image_subspace(net, p) == image
                assert is_trap_space(net, p) == all(
                    expected[i] == p.value(i) for i in p.fixed_vars())

    def test_image_int_matches_evaluation(self):
        for net in small_corpus_networks():
            n = net.n
            for x in range(1 << n):
                state = Subspace.from_state(n, x)
                bits = [evaluate(f, state) for f in net.functions]
                assert image_int(net, x) == Subspace.from_items(n, enumerate(bits)).vals

    def test_restricted_constant_of_a_sixteen_input_function(self):
        # v0 = v0 | g(v1..v15): constant 1 wherever v0 is fixed at 1, and
        # varying where v0 is fixed at 0 and g is not yet decided
        names = [f"v{i}" for i in range(16)]
        g = " | ".join(f"(v{i} & !v{i + 1} & v{i + 2})" for i in range(1, 14))
        net = parse_network(f"targets, factors\nv0, v0 | {g}\n"
                            + "".join(f"{name}, {name}\n" for name in names[1:]))
        assert net.supports[0] == tuple(range(16))
        assert net.restricted_constant(0, S("1" + "-" * 15)) == 1
        assert net.restricted_constant(0, S("1" + "01" * 7 + "0")) == 1
        assert net.restricted_constant(0, S("0" + "-" * 15)) is None
        assert net.restricted_constant(0, S("-" * 16)) is None
        # v1..v3 at 1,0,1 decide g: constant 1 with v0 free
        assert net.restricted_constant(0, S("-101" + "-" * 12)) == 1
        # every g-term killed by v(i+1) = 1 for all i: constant 0 at v0 = 0
        assert net.restricted_constant(0, S("0" + "1" * 15)) == 0
        assert is_trap_space(net, S("1" + "-" * 15))
        assert not is_trap_space(net, S("0" + "-" * 15))


class TestNetworkValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            BooleanNetwork(("a", "a"), (Var(0), Var(0)))

    @pytest.mark.parametrize("variables, functions, message", [
        ((), (), "at least one variable"),
        (("a", "b"), (Var(0),), "must align"),
        (("a",), (Var(0), Var(0)), "must align"),
        (("a",), (Var(1),), "undeclared variable"),
        (("a", "b"), (Var(0), Not(Var(-1))), "undeclared variable"),
    ])
    def test_malformed_networks_rejected(self, variables, functions, message):
        with pytest.raises(ValueError, match=message):
            BooleanNetwork(variables, functions)
