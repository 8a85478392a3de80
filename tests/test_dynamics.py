import copy
import pickle
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapspaces import GeneratorConfig, dynamics, expr, generate, parse_network
from trapspaces.dynamics import (
    attractors,
    brute_force_trap_spaces,
    build_stg,
    select_trap_spaces,
)
from trapspaces.errors import CapExceededError, TrapSpacesError
from trapspaces.space import Subspace, subspace_leq

from conftest import corpus
from reference import contains_state, image_int, is_trap_set, referenced_states


def reference_trap_spaces(net):
    """Reference for the column walk, state by state: every one of the 3^n
    subspaces p, kept iff F(x) agrees with p's fixed part at each state x
    of p, with F(x) from ``image_int``."""
    n = net.n
    image = [image_int(net, x) for x in range(1 << n)]
    full = (1 << n) - 1
    spaces = []
    for choices in product(((0, 0), (full, 0), (full, full)), repeat=n):
        mask = vals = 0
        for i, (m, v) in enumerate(choices):
            bit = 1 << (n - 1 - i)
            mask |= m & bit
            vals |= v & bit
        free = full & ~mask
        sub = 0
        ok = True
        while True:
            x = vals | sub
            if (image[x] & mask) != vals:
                ok = False
                break
            if sub == free:
                break
            sub = (sub - free) & free
        if ok:
            spaces.append(Subspace(n, mask, vals))
    return sorted(spaces, key=str)


def reference_successors(net, rule):
    """``build_stg``'s successor lists, state by state from ``image_int``."""
    successors = []
    for x in range(1 << net.n):
        fx = image_int(net, x)
        if rule == "sync" or fx == x:
            successors.append((fx,))
        else:
            flips = [x ^ (1 << b) for b in range(net.n) if (fx ^ x) >> b & 1]
            successors.append(tuple(sorted(flips)))
    return tuple(successors)


def all_successors(stg):
    """``stg.successors(x)`` for every state x, in state order."""
    return tuple(stg.successors(x) for x in range(1 << stg.n))


class TestBuildStg:
    def test_sync_successor_is_the_image(self, example_net):
        stg = build_stg(example_net, "sync")
        assert stg.rule == "sync" and stg.n == 4
        for x in range(16):
            assert stg.successors(x) == (image_int(example_net, x),)

    def test_async_single_flips_toward_image(self, example_net):
        stg = build_stg(example_net, "async")
        # F(0110) = 1000: v1, v2 and v3 may each flip
        assert stg.successors(0b0110) == (0b0010, 0b0100, 0b1110)
        # F(0000) = 0001: only v4 flips
        assert stg.successors(0b0000) == (0b0001,)

    def test_async_steady_state_self_loops(self, example_net):
        stg = build_stg(example_net, "async")
        assert stg.successors(0b1101) == (0b1101,)

    def test_unknown_rule(self, example_net):
        with pytest.raises(TrapSpacesError):
            build_stg(example_net, "block-sequential")

    def test_caps(self, example_net):
        with pytest.raises(CapExceededError):
            build_stg(example_net, "sync", cap=3)
        # explicit cap overrides the default
        assert build_stg(example_net, "async", cap=4).n == 4

    def test_successors_equal_the_per_state_reference(self):
        for net in corpus(200):
            if net.n <= 8:
                for rule in ("sync", "async"):
                    assert all_successors(build_stg(net, rule)) == reference_successors(net, rule)

    def test_graph_is_an_unhashable_value(self, example_net):
        # the images are a mutable array, so the graph compares by value but
        # does not hash
        stg = build_stg(example_net, "async")
        assert stg.images.typecode == "Q" and len(stg.images) == 16
        copies = [pickle.loads(pickle.dumps(stg, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)] + [copy.deepcopy(stg)]
        for copied in copies:
            assert copied is not stg and copied == stg
            assert all_successors(copied) == all_successors(stg)
        assert stg != build_stg(example_net, "sync")
        with pytest.raises(TypeError):
            hash(stg)

    def test_graph_holds_one_image_per_state(self):
        # the image array and Tarjan's arrays peak at 1.1 MB; one successor
        # tuple per state would peak at 6.2 MB
        net = generate(GeneratorConfig(14, 3, seed=1))
        tracemalloc.start()
        try:
            attractors(build_stg(net, "async"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    @pytest.mark.parametrize("block", [1, 4])
    def test_columns_read_in_blocks(self, example_net, monkeypatch, block):
        # 16 states in blocks of 1 or 4: each block is read at its offset
        monkeypatch.setattr(dynamics, "_BLOCK", block)
        for rule in ("sync", "async"):
            assert all_successors(build_stg(example_net, rule)) == reference_successors(
                example_net, rule
            )


class TestAttractors:
    def test_example_sync(self, example_net):
        stg = build_stg(example_net, "sync")
        # steady state 1101 plus a four-cycle filling 00--
        assert attractors(stg) == [[0b0000, 0b0001, 0b0010, 0b0011], [0b1101]]

    def test_example_async(self, example_net):
        stg = build_stg(example_net, "async")
        got = attractors(stg)
        assert [0b1101] in got
        assert len(got) == 2
        cyclic = next(a for a in got if len(a) > 1)
        assert all(contains_state(Subspace.from_str("00--"), x) for x in cyclic)

    def test_attractors_are_trap_sets(self):
        for net in corpus(20, sizes=(4, 5, 6), seed0=900):
            for rule in ("sync", "async"):
                stg = build_stg(net, rule)
                for attr in attractors(stg):
                    assert is_trap_set(stg, set(attr))

    def test_attractors_equal_the_closed_reachable_sets(self):
        # x lies in an attractor iff every state reachable from x reaches x
        # back; the attractor is then the set reachable from x
        for net in corpus(30, sizes=(4, 5, 6), seed0=700):
            for rule in ("sync", "async"):
                stg = build_stg(net, rule)
                reach = []
                for x in range(1 << net.n):
                    seen, frontier = {x}, [x]
                    while frontier:
                        for y in stg.successors(frontier.pop()):
                            if y not in seen:
                                seen.add(y)
                                frontier.append(y)
                    reach.append(seen)
                closed = {
                    tuple(sorted(reach[x]))
                    for x in range(1 << net.n)
                    if all(x in reach[y] for y in reach[x])
                }
                assert attractors(stg) == [list(a) for a in sorted(closed)]

    def test_every_state_reaches_an_attractor(self, example_net):
        for rule in ("sync", "async"):
            stg = build_stg(example_net, rule)
            basin = set()
            for attr in attractors(stg):
                frontier = set(attr)
                while frontier:
                    basin |= frontier
                    frontier = {
                        x
                        for x in range(16)
                        if x not in basin
                        and any(y in basin for y in stg.successors(x))
                    }
            assert basin == set(range(16))


class TestIsTrapSet:
    def test_examples(self, example_net):
        stg = build_stg(example_net, "async")
        trap = set(referenced_states(Subspace.from_str("00--")))
        assert is_trap_set(stg, trap)
        assert not is_trap_set(stg, {0b0110})
        assert is_trap_set(stg, {0b1101})

    def test_empty_set_rejected(self, example_net):
        stg = build_stg(example_net, "sync")
        with pytest.raises(TrapSpacesError):
            is_trap_set(stg, set())


class TestBruteForce:
    def test_example_all(self, example_net):
        got = [str(p) for p in brute_force_trap_spaces(example_net, "all")]
        assert got == ["----", "00--", "1---", "1-0-", "1-01", "1101"]

    def test_example_min_max(self, example_net):
        assert [str(p) for p in brute_force_trap_spaces(example_net, "min")] == [
            "00--",
            "1101",
        ]
        assert [str(p) for p in brute_force_trap_spaces(example_net, "max")] == [
            "00--",
            "1---",
        ]

    def test_negation_cycle(self, negation_cycle):
        assert [str(p) for p in brute_force_trap_spaces(negation_cycle, "all")] == [
            "--"
        ]
        assert [str(p) for p in brute_force_trap_spaces(negation_cycle, "min")] == [
            "--"
        ]
        assert brute_force_trap_spaces(negation_cycle, "max") == []

    def test_unknown_mode(self, example_net):
        with pytest.raises(TrapSpacesError):
            brute_force_trap_spaces(example_net, "extremal")

    def test_cap(self, example_net):
        with pytest.raises(CapExceededError):
            brute_force_trap_spaces(example_net, "all", cap=3)

    def test_equals_the_per_state_reference(self, monkeypatch):
        # with the kernel's width below n, the walk decides the leading
        # variables and hands the kernel its folded tables
        widths = (dynamics._KERNEL_VARS, 1, 3)
        for net in corpus(200):
            want = reference_trap_spaces(net)
            for width in widths:
                monkeypatch.setattr(dynamics, "_KERNEL_VARS", width)
                assert brute_force_trap_spaces(net, "all") == want

    def test_identity_network_has_every_subspace_in_pattern_order(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_KERNEL_VARS", 3)
        net = parse_network("targets, factors\n"
                            + "".join(f"v{i}, v{i}\n" for i in range(1, 8)))
        got = [str(p) for p in brute_force_trap_spaces(net, "all")]
        assert got == ["".join(chars) for chars in product("-01", repeat=7)]

    def test_negation_network_prunes_at_the_top(self):
        # every fixed value is negated at once, so only the whole space
        # survives, and the walk never leaves its free branch
        net = parse_network("targets, factors\n"
                            + "".join(f"v{i}, !v{i}\n" for i in range(1, 23)))
        assert brute_force_trap_spaces(net, "all", cap=22) == [Subspace.whole(22)]

    def test_builds_the_variable_columns_once(self, monkeypatch):
        built = []

        def counting_column(k, pos):
            built.append((k, pos))
            return column(k, pos)

        column = expr._column
        monkeypatch.setattr(expr, "_column", counting_column)
        net = next(corpus(1, sizes=(7,), seed0=300))
        brute_force_trap_spaces(net, "all")
        assert sorted(built) == [(7, pos) for pos in range(7)]

    def test_trap_spaces_are_trap_sets_in_both_rules(self):
        for net in corpus(12, sizes=(4, 5), seed0=1000):
            spaces = brute_force_trap_spaces(net, "all")
            for rule in ("sync", "async"):
                stg = build_stg(net, rule)
                for p in spaces:
                    assert is_trap_set(stg, set(referenced_states(p)))


def subspace_lists(max_n=6):
    def of_size(n):
        space = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)).map(
            lambda mv: Subspace(n, mv[0], mv[0] & mv[1]))
        return st.lists(space, max_size=20)

    return st.integers(1, max_n).flatmap(of_size)


def pairwise_select(spaces, mode):
    """``select_trap_spaces`` by its definition, one pair of spaces at a time."""
    if mode == "min":
        return [p for p in spaces if not any(q != p and subspace_leq(q, p) for q in spaces)]
    proper = [p for p in spaces if p.mask != 0]
    return [p for p in proper if not any(p != q and subspace_leq(p, q) for q in proper)]


class TestSelectTrapSpaces:
    @settings(max_examples=300, deadline=None)
    @given(subspace_lists(), st.sampled_from(["min", "max"]))
    def test_equals_the_order_definition(self, spaces, mode):
        assert select_trap_spaces(spaces, mode) == pairwise_select(spaces, mode)

    def test_equals_the_order_definition_on_oracle_lists(self):
        for net in corpus(200):
            spaces = brute_force_trap_spaces(net, "all")
            for mode in ("min", "max"):
                assert select_trap_spaces(spaces, mode) == pairwise_select(spaces, mode)

    def test_keeps_input_order_and_equal_copies(self):
        spaces = [Subspace.from_str(t) for t in ("1-", "0-", "10", "-1", "10", "--")]
        assert [str(p) for p in select_trap_spaces(spaces, "min")] == ["0-", "10", "-1", "10"]
        assert [str(p) for p in select_trap_spaces(spaces, "max")] == ["1-", "0-", "-1"]

    def test_max_drops_every_copy_of_the_whole_space(self):
        spaces = [Subspace.from_str(t) for t in ("--", "-0", "--", "--")]
        assert [str(p) for p in select_trap_spaces(spaces, "max")] == ["-0"]
        assert select_trap_spaces([Subspace.whole(3)] * 3, "max") == []

    @pytest.mark.parametrize("mode", ["all", "steady"])
    def test_unknown_mode(self, mode):
        with pytest.raises(TrapSpacesError, match="unknown mode"):
            select_trap_spaces([Subspace.whole(2)], mode)
