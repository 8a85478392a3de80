import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapspaces import parse_network
from trapspaces.analysis import (
    attractor_trapspace_audit,
    commitment_table,
    cyclic_attractor_lower_bound,
    reduce,
)
from trapspaces.dynamics import attractors, brute_force_trap_spaces, build_stg
from trapspaces.errors import NotATrapSpaceError, TrapSpacesError
from trapspaces.expr import Const, Not, Var, format_expression
from trapspaces.space import BooleanNetwork, Subspace, subspace_leq

from conftest import corpus, expressions
from reference import embed_state, image_int

S = Subspace.from_str


def embed_subspace(red, q):
    """The parent subspace that a subspace ``q`` of the reduced network
    stands for: the fixed part of ``red.fixing`` plus q's fixed variables,
    placed through ``index_map``."""
    n = red.parent.n
    mask, vals = red.fixing.mask, red.fixing.vals
    for parent_i, reduced_i in red.index_map.items():
        if q.is_fixed(reduced_i):
            bit = 1 << (n - 1 - parent_i)
            mask |= bit
            if q.value(reduced_i):
                vals |= bit
    return Subspace(n, mask, vals)


class TestReduce:
    def test_example_reduction(self, example_net):
        red = reduce(example_net, S("1---"))
        assert red.network.variables == ("v2", "v3", "v4")
        # v1 fixed at 1: f2 collapses to v4, f3 to 0, f4 stays !v3
        assert red.network.functions == (Var(2), Const(0), Not(Var(1)))
        assert red.index_map == {1: 0, 2: 1, 3: 2}

    def test_embed_state(self, example_net):
        red = reduce(example_net, S("1---"))
        assert embed_state(red, 0b101) == 0b1101
        assert embed_state(red, 0b000) == 0b1000

    def test_non_trap_space_rejected(self, example_net):
        with pytest.raises(NotATrapSpaceError):
            reduce(example_net, S("0---"))

    def test_unchecked_bypasses_validation(self, example_net):
        red = reduce(example_net, S("0---"), unchecked=True)
        assert red.network.n == 3

    @pytest.mark.parametrize("unchecked", [False, True])
    @pytest.mark.parametrize("text", ["1-", "-----1"])
    def test_pattern_of_another_width_rejected(self, example_net, text, unchecked):
        with pytest.raises(TrapSpacesError, match=f"pattern has {len(text)} positions but "
                                                  "the network has 4 variables"):
            reduce(example_net, S(text), unchecked=unchecked)

    def test_all_variables_fixed_rejected(self, example_net):
        with pytest.raises(NotATrapSpaceError):
            reduce(example_net, S("1101"))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5))
    def test_reduction_commutes_with_the_oracle(self, data, n):
        functions = data.draw(st.lists(expressions(n), min_size=n, max_size=n))
        net = BooleanNetwork(tuple(f"x{i}" for i in range(n)), tuple(functions))
        spaces = brute_force_trap_spaces(net, "all")
        for p in spaces:
            if p.is_state:
                continue  # nothing left to reduce
            red = reduce(net, p)
            got = [embed_subspace(red, q) for q in brute_force_trap_spaces(red.network, "all")]
            assert sorted(got, key=str) == [q for q in spaces if subspace_leq(q, p)]

    def test_reduction_preserves_dynamics(self, example_net):
        # inside the trap space, the reduced image matches the parent image
        red = reduce(example_net, S("1-0-"))
        rn = red.network.n
        for y in range(1 << rn):
            x = embed_state(red, y)
            fy = image_int(red.network, y)
            assert embed_state(red, fy) == image_int(example_net, x)


class TestCyclicLowerBound:
    def test_example(self, example_net):
        bound = cyclic_attractor_lower_bound(example_net)
        assert bound.count == 1
        assert [str(p) for p in bound.witnesses] == ["00--"]
        assert bound.oscillating_candidates == [["v3", "v4"]]

    def test_negation_cycle(self, negation_cycle):
        bound = cyclic_attractor_lower_bound(negation_cycle)
        assert bound.count == 1
        assert [str(p) for p in bound.witnesses] == ["--"]

    def test_steady_only_network(self):
        net = parse_network("targets, factors\na, a\nb, a\n")
        assert cyclic_attractor_lower_bound(net).count == 0

    def test_bound_holds_against_exhaustive_attractors(self):
        for net in corpus(30, sizes=(4, 5, 6), seed0=1100):
            bound = cyclic_attractor_lower_bound(net)
            for rule in ("sync", "async"):
                cyclic = [
                    a for a in attractors(build_stg(net, rule)) if len(a) > 1
                ]
                assert len(cyclic) >= bound.count


class TestCommitmentTable:
    def test_example(self, example_net):
        table = commitment_table(example_net)
        assert [str(p) for p in table.spaces] == ["00--", "1---"]
        assert table.steady_counts == [0, 1]
        assert table.sync_cyclic_counts == [1, 0]
        assert table.async_cyclic_counts == [1, 0]

    def test_columns_match_exhaustive_attractors(self):
        nonzero = set()
        for net in corpus(30, sizes=(4, 5, 6), seed0=1300):
            table = commitment_table(net)
            assert table.stop == "complete"

            def counts(items):
                # per maximal trap space, the items with every state inside it
                return [sum(all(x & p.mask == p.vals for x in a) for a in items)
                        for p in table.spaces]

            sync = attractors(build_stg(net, "sync"))
            # a steady state is a one-state attractor of either graph
            assert table.steady_counts == counts([a for a in sync if len(a) == 1])
            for rule, got in (("sync", table.sync_cyclic_counts),
                              ("async", table.async_cyclic_counts)):
                attrs = sync if rule == "sync" else attractors(build_stg(net, rule))
                want = counts([a for a in attrs if len(a) > 1])
                assert got == want
                nonzero.update(rule for count in want if count)
            if any(table.steady_counts):
                nonzero.add("steady")
        # the corpus exercises every column with a non-zero count
        assert nonzero == {"steady", "sync", "async"}

    def test_attractor_columns_omitted_beyond_cap(self, example_net):
        table = commitment_table(example_net, stg_cap=3)
        assert table.steady_counts == [0, 1]
        assert table.sync_cyclic_counts is None
        assert table.async_cyclic_counts is None
        assert table.stop == "cap"
        # a timed-out search is the worse stop
        assert commitment_table(example_net, stg_cap=3, timeout=0).stop == "timeout"


class TestAttractorAudit:
    def test_example_sync(self, example_net):
        audit = attractor_trapspace_audit(example_net, "sync")
        assert audit.rule == "sync"
        by_space = {str(a.space): a for a in audit.per_space}
        assert set(by_space) == {"00--", "1101"}
        assert by_space["00--"].attractor_count == 1
        assert by_space["00--"].tight == [True]
        assert by_space["1101"].attractor_count == 1
        assert by_space["1101"].tight == [True]
        assert audit.outside == []

    def test_async_attractor_need_not_be_tight(self, example_net):
        audit = attractor_trapspace_audit(example_net, "async")
        by_space = {str(a.space): a for a in audit.per_space}
        assert by_space["1101"].tight == [True]
        assert by_space["00--"].attractor_count == 1
        assert audit.outside == []

    def test_every_attractor_is_counted_somewhere_or_outside(self):
        for net in corpus(20, sizes=(4, 5, 6), seed0=1200):
            for rule in ("sync", "async"):
                audit = attractor_trapspace_audit(net, rule)
                total = sum(a.attractor_count for a in audit.per_space)
                n_attrs = len(attractors(build_stg(net, rule)))
                # minimal trap spaces are disjoint, so counts partition
                assert total + len(audit.outside) == n_attrs


@pytest.mark.parametrize("analyse", [
    cyclic_attractor_lower_bound,
    commitment_table,
    lambda net, **budget: attractor_trapspace_audit(net, "sync", **budget),
], ids=["bound", "commitment", "audit"])
@pytest.mark.parametrize("budget, stop", [({"timeout": 0}, "timeout"), ({"limit": 1}, "limit")])
def test_a_stopped_search_returns_its_partial_record(example_net, analyse, budget, stop):
    assert analyse(example_net, **budget).stop == stop
