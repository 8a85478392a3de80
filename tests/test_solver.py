import hashlib
import sys
import time
from itertools import combinations, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapspaces import GeneratorConfig, build_graph, generate, parse_network
from trapspaces.dynamics import brute_force_trap_spaces
from trapspaces.errors import (
    InconsistentArcSetError,
    SolverTimeoutError,
    TrapSpacesError,
)
from trapspaces.solver import (
    _record,
    _Search,
    _steady_upto,
    enumerate_extremal,
    induced_subspace,
    is_consistent,
    is_stable,
    max_trap_spaces,
    min_trap_spaces,
    steady_states,
)
from trapspaces.space import BooleanNetwork, Subspace, subspace_leq

from conftest import corpus, expressions

S = Subspace.from_str


class TestArcSetPredicates:
    def test_consistency_examples(self, example_graph):
        assert is_consistent(example_graph, [1, 2, 4, 8, 10])
        assert is_consistent(example_graph, [])
        # a10 and a11 assign opposite values to v4
        assert not is_consistent(example_graph, [10, 11])
        # a1 and a3 assign opposite values to v1
        assert not is_consistent(example_graph, [1, 3])

    def test_stability_examples(self, example_graph):
        # a1 covers its own tail (v1, 1)
        assert is_stable(example_graph, [1])
        # a2 needs (v2, 1), which only a4 provides
        assert not is_stable(example_graph, [2])
        assert is_stable(example_graph, [3, 5])
        assert not is_stable(example_graph, [4])
        assert is_stable(example_graph, [])

    def test_induced_subspace_examples(self, example_graph):
        assert induced_subspace(example_graph, [1, 8]) == S("1-0-")
        assert induced_subspace(example_graph, [1, 8, 4]) == S("110-")
        assert induced_subspace(example_graph, [1, 2, 4, 8, 10]) == S("1101")
        assert induced_subspace(example_graph, [3, 5]) == S("00--")
        assert induced_subspace(example_graph, []) == S("----")

    def test_induced_subspace_rejects_conflicts(self, example_graph):
        with pytest.raises(InconsistentArcSetError):
            induced_subspace(example_graph, [10, 11])

    @pytest.mark.parametrize("check", [is_consistent, is_stable, induced_subspace])
    def test_unknown_arc_ids(self, example_graph, check):
        # the example has arcs 1..11
        for arc_id in (0, 12):
            with pytest.raises(KeyError):
                check(example_graph, [1, arc_id])


class TestExhaustiveArcSetOracle:
    def test_all_stable_consistent_sets_of_the_example(self, example_graph):
        # check every one of the 2^11 arc subsets
        arcs = range(1, example_graph.m + 1)
        found = set()
        for r in range(len(arcs) + 1):
            for ids in combinations(arcs, r):
                if is_consistent(example_graph, ids) and is_stable(
                    example_graph, ids
                ):
                    found.add(frozenset(ids))
        assert found == {
            frozenset(),
            frozenset({1}),
            frozenset({3, 5}),
            frozenset({1, 8}),
            frozenset({1, 8, 10}),
            frozenset({1, 4, 8, 10}),
            frozenset({1, 2, 4, 8, 10}),
            frozenset({2, 4, 8, 10}),
        }

    def test_extremal_sets_match_the_lattice(self, example_graph):
        got_max = enumerate_extremal(example_graph, "max")
        assert {frozenset(s.arc_ids) for s in got_max.solutions} == {
            frozenset({1, 2, 4, 8, 10}),
            frozenset({3, 5}),
        }
        got_min = enumerate_extremal(example_graph, "min")
        assert {frozenset(s.arc_ids) for s in got_min.solutions} == {
            frozenset({1}),
            frozenset({3, 5}),
        }


class TestEnumerateExtremal:
    def test_max_mode_on_example(self, example_graph):
        result = enumerate_extremal(example_graph, "max")
        assert result.complete
        induced = sorted(str(s.induced) for s in result.solutions)
        assert induced == ["00--", "1101"]

    def test_min_mode_on_example(self, example_graph):
        result = enumerate_extremal(example_graph, "min")
        assert result.complete
        induced = sorted(str(s.induced) for s in result.solutions)
        assert induced == ["00--", "1---"]

    def test_negation_cycle_has_no_nonempty_set(self, negation_cycle):
        g = build_graph(negation_cycle)
        for mode in ("min", "max"):
            result = enumerate_extremal(g, mode)
            assert result.complete
            assert result.solutions == []

    def test_steady_mode_induces_every_variable(self, example_graph):
        result = enumerate_extremal(example_graph, "steady")
        assert [str(s.induced) for s in result.solutions] == ["1101"]

    def test_unknown_mode(self, example_graph):
        with pytest.raises(TrapSpacesError):
            enumerate_extremal(example_graph, "extreme")

    def test_limit_flags_incomplete(self, example_graph):
        result = enumerate_extremal(example_graph, "min", limit=1)
        assert not result.complete
        assert len(result.solutions) == 1

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, example_graph, limit):
        with pytest.raises(TrapSpacesError):
            enumerate_extremal(example_graph, "max", limit=limit)

    def test_nan_timeout_rejected(self, example_graph):
        with pytest.raises(TrapSpacesError):
            enumerate_extremal(example_graph, "max", timeout=float("nan"))

    def test_timeout_raises(self):
        net = next(corpus(1, sizes=(40,), seed0=600))
        with pytest.raises(SolverTimeoutError):
            enumerate_extremal(build_graph(net), "max", timeout=0.0)

    def test_timeout_carries_the_partial_result(self):
        net = next(corpus(1, sizes=(40,), seed0=600))
        with pytest.raises(SolverTimeoutError) as info:
            enumerate_extremal(build_graph(net), "max", timeout=0.0)
        partial = info.value.partial
        assert partial.stop == "timeout" and not partial.complete
        assert partial.solutions == []

    def test_package_callers_read_the_partial_record(self):
        net = next(corpus(1, sizes=(40,), seed0=600))
        g = build_graph(net)
        for search in (min_trap_spaces, max_trap_spaces):
            assert _record(search, net, 5, 0.0, g).stop == "timeout"
        assert _steady_upto(net, 5, 0.0, g) == ([], "timeout")

    def test_stop_reasons(self, example_graph):
        assert enumerate_extremal(example_graph, "max").stop == "complete"
        assert enumerate_extremal(example_graph, "max", limit=1).stop == "limit"

    def test_limit_equal_to_the_count_is_complete(self, example_graph):
        # the example has exactly two minimal trap spaces: the limit is
        # reached, but the extra leaf search finds nothing more
        result = enumerate_extremal(example_graph, "max", limit=2)
        assert result.stop == "complete"
        assert len(result.solutions) == 2
        assert result.iterations == 3
        assert result.iterations == enumerate_extremal(example_graph, "max").iterations

    def test_no_recursion_on_a_long_ring(self):
        # v_i = v_{i+1} | v_{i+2}: one decision per variable on the way to
        # the all-ones state, far deeper than the recursion limit set here
        n = 1200
        net = parse_network("targets, factors\n" + "".join(
            f"v{i}, v{(i + 1) % n} | v{(i + 2) % n}\n" for i in range(n)))
        g = build_graph(net)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(400)
        try:
            start = time.monotonic()
            report = min_trap_spaces(net, graph=g)
            elapsed = time.monotonic() - start
        finally:
            sys.setrecursionlimit(old)
        assert [str(p) for p in report.spaces] == ["0" * n, "1" * n]
        assert elapsed < 5.0

    def test_determinism(self, example_graph):
        runs = [
            [s.arc_ids for s in enumerate_extremal(example_graph, mode).solutions]
            for mode in ("min", "max")
            for _ in range(2)
        ]
        assert runs[0] == runs[1] and runs[2] == runs[3]


def _recorded_leaves(g, mode):
    """The leaves the search reaches in ``mode``, each installed as a
    no-good as ``enumerate_extremal`` does."""
    search = _Search(g, fixed_first=mode == "max", allow_free=True, deadline=None)
    leaves = []
    while (leaf := search.next_leaf()) is not None:
        search.nogoods.append(leaf[0])
        leaves.append(leaf)
    return leaves


class TestSelfChecks:
    """The checks inside ``enumerate_extremal``, reached by replaying
    doctored leaves of the example graph in place of the search's."""

    @staticmethod
    def replay(monkeypatch, leaves):
        queue = iter([*leaves, None])
        monkeypatch.setattr(_Search, "next_leaf", lambda self: next(queue))

    def test_the_same_leaf_twice(self, example_graph, monkeypatch):
        leaf = _recorded_leaves(example_graph, "max")[0]
        self.replay(monkeypatch, [leaf, leaf])
        with pytest.raises(TrapSpacesError, match="comparable spaces"):
            enumerate_extremal(example_graph, "max")

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_a_leaf_strictly_comparable_to_an_earlier_one(self, example_graph, mode,
                                                          monkeypatch):
        # the minimal trap space 1101 lies strictly below the maximal one 1---
        lower = _recorded_leaves(example_graph, "max")[0]
        upper = _recorded_leaves(example_graph, "min")[0]
        for leaves in ([lower, upper], [upper, lower]):
            self.replay(monkeypatch, leaves)
            with pytest.raises(TrapSpacesError, match="comparable spaces"):
                enumerate_extremal(example_graph, mode)

    def test_max_mode_leaf_with_every_arc_alive(self, example_graph, monkeypatch):
        # a10 and a11 assign opposite values to v4
        lits, _ = _recorded_leaves(example_graph, "max")[0]
        self.replay(monkeypatch, [(lits, (1 << example_graph.m) - 1)])
        with pytest.raises(TrapSpacesError, match="invalid arc set"):
            enumerate_extremal(example_graph, "max")

    def test_max_mode_leaf_with_another_leafs_arcs(self, example_graph, monkeypatch):
        # each witness is consistent and stable, but induces the other
        # leaf's space, not the one its no-good records
        (lits0, alive0), (lits1, alive1) = _recorded_leaves(example_graph, "max")
        self.replay(monkeypatch, [(lits0, alive1), (lits1, alive0)])
        with pytest.raises(TrapSpacesError, match="invalid arc set"):
            enumerate_extremal(example_graph, "max")

    def test_min_mode_literal_without_an_alive_provider(self, example_graph, monkeypatch):
        lits, alive = _recorded_leaves(example_graph, "min")[0]
        low = (lits & -lits).bit_length() - 1
        self.replay(monkeypatch, [(lits, alive & ~example_graph.heads_mask[low])])
        with pytest.raises(TrapSpacesError, match="no provider"):
            enumerate_extremal(example_graph, "min")


class TestTrapSpaceReports:
    def test_min_trap_spaces_of_example(self, example_net, example_graph):
        report = min_trap_spaces(example_net, graph=example_graph)
        assert [str(p) for p in report.spaces] == ["00--", "1101"]
        # witness arc sets induce their spaces
        for p, w in zip(report.spaces, report.witnesses):
            assert w.induced == p
        assert report.complete

    def test_max_trap_spaces_of_example(self, example_net, example_graph):
        report = max_trap_spaces(example_net, graph=example_graph)
        assert [str(p) for p in report.spaces] == ["00--", "1---"]

    def test_steady_states_of_example(self, example_net, example_graph):
        assert [str(x) for x in steady_states(example_net, graph=example_graph)] == [
            "1101"
        ]

    @pytest.mark.parametrize("search", [min_trap_spaces, max_trap_spaces, steady_states])
    def test_graph_of_another_network_is_refused(self, negation_cycle, example_graph,
                                                  search):
        with pytest.raises(TrapSpacesError, match="another network"):
            search(negation_cycle, graph=example_graph)

    def test_graph_of_an_equal_network_is_accepted(self, example_net, example_graph):
        copy = BooleanNetwork(example_net.variables, example_net.functions)
        assert copy is not example_net
        assert min_trap_spaces(copy, graph=example_graph).spaces == [S("00--"), S("1101")]

    def test_negation_cycle_min_is_whole_space(self, negation_cycle):
        report = min_trap_spaces(negation_cycle)
        assert [str(p) for p in report.spaces] == ["--"]
        assert report.witnesses[0].arc_ids == ()

    def test_negation_cycle_max_is_empty(self, negation_cycle):
        assert max_trap_spaces(negation_cycle).spaces == []
        assert steady_states(negation_cycle) == []

    def test_identity_network(self):
        net = parse_network("targets, factors\na, a\nb, b\n")
        assert [str(p) for p in min_trap_spaces(net).spaces] == [
            "00", "01", "10", "11"
        ]
        assert [str(p) for p in max_trap_spaces(net).spaces] == [
            "-0", "-1", "0-", "1-"
        ]
        assert len(steady_states(net)) == 4

    def test_steady_states_lie_in_minimal_trap_spaces(self):
        for net in corpus(40, seed0=700):
            g = build_graph(net)
            minimal = min_trap_spaces(net, graph=g).spaces
            for x in steady_states(net, graph=g):
                assert any(subspace_leq(x, p) for p in minimal)


class TestAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5))
    def test_random_expressions(self, data, n):
        functions = data.draw(st.lists(expressions(n), min_size=n, max_size=n))
        net = BooleanNetwork(tuple(f"x{i}" for i in range(n)), tuple(functions))
        g = build_graph(net)
        assert min_trap_spaces(net, graph=g).spaces == brute_force_trap_spaces(net, "min")
        assert max_trap_spaces(net, graph=g).spaces == brute_force_trap_spaces(net, "max")
        assert steady_states(net, graph=g) == [
            p for p in brute_force_trap_spaces(net, "all") if p.is_state
        ]

    def test_one_max_mode_iteration_per_space(self):
        # corpus(200) indices 19 and 46 took 577 and 415 iterations when the
        # search enumerated minimal arc sets instead of spaces
        nets = list(corpus(47))
        for net in (nets[19], nets[46]):
            report = max_trap_spaces(net)
            assert report.iterations == len(report.spaces) + 1

    def test_min_max_and_steady_on_a_corpus(self):
        for net in corpus(60, seed0=800):
            g = build_graph(net)
            assert min_trap_spaces(net, graph=g).spaces == brute_force_trap_spaces(
                net, "min"
            )
            assert max_trap_spaces(net, graph=g).spaces == brute_force_trap_spaces(
                net, "max"
            )
            want_steady = [
                p for p in brute_force_trap_spaces(net, "all") if p.is_state
            ]
            assert steady_states(net, graph=g) == want_steady


def _deadline_after(calls):
    """A ``_Search._check_deadline`` that passes ``calls`` times, then raises."""
    ticks = count(1)

    def check(self):
        if next(ticks) > calls:
            raise SolverTimeoutError("doctored deadline")

    return check


def test_every_reported_space_is_extremal_also_when_cut_short(monkeypatch):
    # every leaf the search reaches is extremal, so a list cut short by the
    # limit or by a deadline holds only spaces of the complete answer: the
    # oracle's up to 10 variables, the complete run's above
    cases = [(net, range(1, 6), (1, 2, 3, 5, 8) if i < 70 else ())
             for i, net in enumerate(corpus(200))]
    cases += [(generate(GeneratorConfig(n=50, k=3.0, seed=s)), (1, 2), ()) for s in range(16)]
    for net, limits, deadlines in cases:
        g = build_graph(net)
        if net.n <= 10:
            minimal = brute_force_trap_spaces(net, "min")
            answers = {"max": minimal, "min": brute_force_trap_spaces(net, "max"),
                       "steady": [p for p in minimal if p.is_state]}
        else:
            answers = {mode: enumerate_extremal(g, mode).spaces
                       for mode in ("max", "min", "steady")}
        for mode, answer in answers.items():
            complete = set(answer)
            for limit in limits:
                assert set(enumerate_extremal(g, mode, limit).spaces) <= complete, (mode, limit)
            for calls in deadlines:
                with monkeypatch.context() as patch:
                    patch.setattr(_Search, "_check_deadline", _deadline_after(calls))
                    try:
                        spaces = enumerate_extremal(g, mode).spaces
                    except SolverTimeoutError as exc:
                        spaces = exc.partial.spaces
                assert set(spaces) <= complete, (mode, calls)


# SHA-256 of (arc ids and induced pattern per solution, iterations, nodes,
# stop) of enumerate_extremal in min, max and steady mode on corpus(200)
# and the N-K networks n=50, k=3, seeds 0-15, recorded before the bitmask
# view moved into the graph and the propagation loop was rewritten: no
# instance may need more (or fewer) nodes without this changing
GOLDEN_SEARCH_SHA256 = "aad100830215fc8e6a955944c10bf99e5507105f4edd2776d11d18fe5e9b2721"


def test_golden_search_hash():
    nk = [generate(GeneratorConfig(n=50, k=3.0, seed=s)) for s in range(16)]
    digest = hashlib.sha256()
    for net in [*corpus(200), *nk]:
        g = build_graph(net)
        for mode in ("max", "min", "steady"):
            r = enumerate_extremal(g, mode)
            digest.update(repr((
                [(sol.arc_ids, str(sol.induced)) for sol in r.solutions],
                r.iterations, r.nodes, r.stop,
            )).encode())
    assert digest.hexdigest() == GOLDEN_SEARCH_SHA256
