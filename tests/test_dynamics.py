from itertools import product

import pytest

from trapspaces import dynamics, parse_network
from trapspaces.dynamics import (
    attractors,
    brute_force_trap_spaces,
    build_stg,
    is_trap_set,
)
from trapspaces.errors import CapExceededError, TrapSpacesError
from trapspaces.space import Subspace, referenced_states

from conftest import corpus


def reference_trap_spaces(net):
    """Reference for the column walk, state by state: every one of the 3^n
    subspaces p, kept iff F(x) agrees with p's fixed part at each state x
    of p, with F(x) from ``image_int``."""
    n = net.n
    image = [net.image_int(x) for x in range(1 << n)]
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
        fx = net.image_int(x)
        if rule == "sync" or fx == x:
            successors.append((fx,))
        else:
            flips = [x ^ (1 << b) for b in range(net.n) if (fx ^ x) >> b & 1]
            successors.append(tuple(sorted(flips)))
    return tuple(successors)


class TestBuildStg:
    def test_sync_successor_is_the_image(self, example_net):
        stg = build_stg(example_net, "sync")
        assert stg.rule == "sync" and stg.n == 4
        for x in range(16):
            assert stg.successors[x] == (example_net.image_int(x),)

    def test_async_single_flips_toward_image(self, example_net):
        stg = build_stg(example_net, "async")
        # F(0110) = 1000: v1, v2 and v3 may each flip
        assert stg.successors[0b0110] == (0b0010, 0b0100, 0b1110)
        # F(0000) = 0001: only v4 flips
        assert stg.successors[0b0000] == (0b0001,)

    def test_async_steady_state_self_loops(self, example_net):
        stg = build_stg(example_net, "async")
        assert stg.successors[0b1101] == (0b1101,)

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
                    assert build_stg(net, rule).successors == reference_successors(net, rule)

    @pytest.mark.parametrize("block", [1, 4])
    def test_columns_read_in_blocks(self, example_net, monkeypatch, block):
        # 16 states in blocks of 1 or 4: each block is read at its offset
        monkeypatch.setattr(dynamics, "_BLOCK", block)
        for rule in ("sync", "async"):
            assert build_stg(example_net, rule).successors == reference_successors(
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
        assert all(Subspace.from_str("00--").contains_state(x) for x in cyclic)

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
                        for y in stg.successors[frontier.pop()]:
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
                        and any(y in basin for y in stg.successors[x])
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

    def test_equals_the_per_state_reference(self):
        for net in corpus(200):
            assert brute_force_trap_spaces(net, "all") == reference_trap_spaces(net)

    def test_trap_spaces_are_trap_sets_in_both_rules(self):
        for net in corpus(12, sizes=(4, 5), seed0=1000):
            spaces = brute_force_trap_spaces(net, "all")
            for rule in ("sync", "async"):
                stg = build_stg(net, rule)
                for p in spaces:
                    assert is_trap_set(stg, set(referenced_states(p)))
