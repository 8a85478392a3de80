import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from trapspaces import cli, dynamics, parse_network, primes, randgen, write_network
from trapspaces.errors import SolverTimeoutError
from trapspaces.randgen import GeneratorConfig, generate
from trapspaces.solver import ArcSetSolution, EnumerationResult
from trapspaces.space import Subspace

from conftest import EXAMPLE_TEXT, NEGATION_CYCLE_TEXT, corpus, fixture_path


MODEL_EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, "models", "example.bnet")
LIMIT_WARNING = "warning: enumeration truncated by --limit\n"
TIMEOUT_WARNING = ("resource limit: solver wall-clock budget exhausted; "
                   "the results printed are those found before it\n")


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.bnet"
    path.write_text(NEGATION_CYCLE_TEXT, encoding="utf-8")
    return str(path)


class TestPrimes:
    def test_lists_all_arcs(self, capsys, example_file):
        code, out, _ = run(capsys, "primes", example_file)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 11
        assert lines[0] == "1 v1=1 -> v1=1"
        assert lines[2] == "3 v1=0,v2=0 -> v1=0"
        assert lines[9] == "10 v3=0 -> v4=1"


class TestTrapspaces:
    def test_default_mode_is_min(self, capsys, example_file):
        code, out, _ = run(capsys, "trapspaces", example_file)
        assert code == 0
        assert out.splitlines() == ["00--", "1101"]

    def test_max_mode(self, capsys, example_file):
        code, out, _ = run(capsys, "trapspaces", "--mode", "max", example_file)
        assert code == 0
        assert out.splitlines() == ["00--", "1---"]

    def test_all_mode_uses_the_oracle(self, capsys, example_file):
        code, out, _ = run(capsys, "trapspaces", "--mode", "all", example_file)
        assert code == 0
        assert out.splitlines() == ["----", "00--", "1---", "1-0-", "1-01", "1101"]

    def test_json_output(self, capsys, example_file):
        code, out, _ = run(capsys, "--json", "trapspaces", example_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "min"
        assert doc["spaces"] == [
            {"v1": 0, "v2": 0},
            {"v1": 1, "v2": 1, "v3": 0, "v4": 1},
        ]
        assert doc["witnesses"] == [[3, 5], [1, 2, 4, 8, 10]]
        assert doc["stats"]["arcs"] == 11
        assert doc["stats"]["complete"] is True
        assert doc["stats"]["stop"] == "complete"

    def test_whole_space_note_on_stderr(self, capsys, cycle_file):
        code, out, err = run(capsys, "trapspaces", cycle_file)
        assert code == 0
        assert out.splitlines() == ["--"]
        assert "whole space" in err

    def test_limit_truncation_exits_3(self, capsys, example_file):
        code, out, err = run(capsys, "--limit", "1", "trapspaces", "--mode",
                             "max", example_file)
        assert code == 3
        assert len(out.splitlines()) == 1
        assert "truncated" in err

    def test_timeout_exits_3(self, capsys, tmp_path):
        path = tmp_path / "big.bnet"
        code, out, _ = run(capsys, "random", "--n", "40", "--seed", "600",
                           "-o", str(path))
        assert code == 0
        code, _, err = run(capsys, "--timeout", "0", "trapspaces", str(path))
        assert code == 3
        assert "resource limit" in err

    def test_timeout_prints_partial_json(self, capsys, tmp_path):
        path = tmp_path / "big.bnet"
        assert run(capsys, "random", "--n", "40", "--seed", "600", "-o", str(path))[0] == 0
        code, out, err = run(capsys, "--json", "--timeout", "0", "trapspaces", str(path))
        assert code == 3
        assert "resource limit" in err and "Traceback" not in err
        doc = json.loads(out)
        assert doc["spaces"] == []
        assert doc["stats"]["stop"] == "timeout"
        assert doc["stats"]["complete"] is False

    def test_all_mode_honours_the_limit(self, capsys, example_file):
        code, out, err = run(capsys, "--limit", "2", "trapspaces", "--mode", "all",
                             example_file)
        assert code == 3
        assert out.splitlines() == ["----", "00--"]
        assert "truncated" in err
        code, out, _ = run(capsys, "--json", "--limit", "1", "trapspaces", "--mode", "all",
                           example_file)
        assert code == 3
        assert json.loads(out) == {"mode": "all", "spaces": [{}]}
        code, out, err = run(capsys, "--limit", "6", "trapspaces", "--mode", "all",
                             example_file)
        assert code == 0 and len(out.splitlines()) == 6 and err == ""

    def test_limit_stop_in_json(self, capsys, example_file):
        code, out, _ = run(capsys, "--json", "--limit", "1", "trapspaces", example_file)
        assert code == 3
        assert json.loads(out)["stats"]["stop"] == "limit"


class TestSteady:
    def test_plain(self, capsys, example_file):
        code, out, _ = run(capsys, "steady", example_file)
        assert code == 0
        assert out.splitlines() == ["1101"]

    def test_json(self, capsys, example_file):
        code, out, _ = run(capsys, "--json", "steady", example_file)
        doc = json.loads(out)
        assert doc == {
            "mode": "steady",
            "spaces": [{"v1": 1, "v2": 1, "v3": 0, "v4": 1}],
        }

    def test_no_steady_states(self, capsys, cycle_file):
        code, out, _ = run(capsys, "steady", cycle_file)
        assert code == 0
        assert out == ""

    def test_limit_truncation_exits_3(self, capsys, tmp_path):
        path = tmp_path / "identity.bnet"
        path.write_text("targets, factors\na, a\nb, b\nc, c\n", encoding="utf-8")
        code, out, err = run(capsys, "--limit", "2", "steady", str(path))
        assert code == 3
        assert len(out.splitlines()) == 2
        assert "truncated" in err
        code, out, _ = run(capsys, "--limit", "8", "steady", str(path))
        assert code == 0
        assert len(out.splitlines()) == 8


class TestAttractors:
    def test_async_default(self, capsys, example_file):
        code, out, _ = run(capsys, "attractors", example_file)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert any(line.startswith("1 1101 1101") for line in lines)

    def test_sync_json(self, capsys, example_file):
        code, out, _ = run(capsys, "--json", "attractors", "--update", "sync",
                           example_file)
        doc = json.loads(out)
        assert doc["update"] == "sync"
        assert [a["size"] for a in doc["attractors"]] == [4, 1]
        assert doc["attractors"][0]["enclosing"] == "00--"

    def test_stg_cap_exits_3(self, capsys, example_file):
        code, _, err = run(capsys, "--stg-cap", "3", "attractors", example_file)
        assert code == 3
        assert "resource limit" in err

    @pytest.mark.parametrize("rule", ["sync", "async"])
    def test_default_cap_refuses_21_variables_before_building(self, capsys, monkeypatch,
                                                              tmp_path, rule):
        def refuse(net):
            raise AssertionError("state graph built")

        monkeypatch.setattr(dynamics, "_columns", refuse)
        path = tmp_path / "net21.bnet"
        path.write_text(write_network(generate(GeneratorConfig(n=21, seed=1))),
                        encoding="utf-8")
        code, out, err = run(capsys, "attractors", "--update", rule, str(path))
        assert code == 3 and out == ""
        assert "resource limit" in err
        # --stg-cap raises the cap: the build then starts (and is refused here)
        with pytest.raises(AssertionError, match="state graph built"):
            cli.run(["--stg-cap", "21", "attractors", "--update", rule, str(path)])

    def test_support_cap_reaches_the_state_graph(self, capsys, tmp_path):
        # 17 variables, and the first function reads all of them
        path = tmp_path / "wide17.bnet"
        names = [f"x{i}" for i in range(17)]
        lines = ["targets, factors", f"x0, {' | '.join(names)}"]
        lines += [f"{name}, {name}" for name in names[1:]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "--stg-cap", "20", "attractors", "--update", "sync",
                           str(path))
        assert code == 3
        assert "support of size 17 exceeds cap of 16" in err
        code, out, _ = run(capsys, "--support-cap", "20", "--stg-cap", "20",
                           "attractors", "--update", "sync", str(path))
        assert code == 0
        # the steady states: the 2^16 with x0 = 1, and the all-zero state
        assert len(out.splitlines()) == (1 << 16) + 1

    def test_rendering_is_unchanged(self, capsys, tmp_path):
        # SHA-256 of the text and --json output, sync and async, on the
        # example, the third (6-variable) network of corpus() and a
        # 7-variable network whose async attractor (all 128 states) is cut
        # at 64 states, recorded when each member state was rendered
        # through a Subspace
        texts = [
            EXAMPLE_TEXT,
            write_network(list(corpus(3))[2]),
            "targets, factors\n" + "".join(f"x{i}, !x{i}\n" for i in range(7)),
        ]
        digest = hashlib.sha256()
        for i, text in enumerate(texts):
            path = tmp_path / f"net{i}.bnet"
            path.write_text(text, encoding="utf-8")
            for rule in ("sync", "async"):
                for flags in ([], ["--json"]):
                    code, out, _ = run(capsys, *flags, "attractors", "--update", rule,
                                       str(path))
                    digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == (
            "98e4ca2e657cd8abf5f87bc6c3f4e39f6ac8db3d2ce1d88835eaec64ce5e7c40")


class TestReduce:
    def test_reduction_output_is_a_network_file(self, capsys, example_file):
        code, out, _ = run(capsys, "reduce", "--space", "1---", example_file)
        assert code == 0
        net = parse_network(out)
        assert net.variables == ("v2", "v3", "v4")

    def test_non_trap_space_exits_2(self, capsys, example_file):
        code, _, err = run(capsys, "reduce", "--space", "0---", example_file)
        assert code == 2
        assert "input error" in err

    def test_unchecked_accepts_any_subspace(self, capsys, example_file):
        code, out, _ = run(capsys, "reduce", "--space", "0---", "--unchecked",
                           example_file)
        assert code == 0
        assert parse_network(out).n == 3

    def test_wrong_pattern_length_exits_2(self, capsys, example_file):
        code, _, err = run(capsys, "reduce", "--space", "1-", example_file)
        assert code == 2
        assert "pattern has 2 positions but the network has 4 variables" in err

    def test_wrong_pattern_length_exits_2_even_unchecked(self, capsys, example_file):
        code, _, err = run(capsys, "reduce", "--space", "1-----", "--unchecked", example_file)
        assert code == 2
        assert "pattern has 6 positions but the network has 4 variables" in err

    def test_pattern_starting_with_a_dash_is_a_value(self, capsys):
        code, _, err = run(capsys, "reduce", "--space", "-----1", MODEL_EXAMPLE)
        assert code == 2
        assert "pattern has 6 positions but the network has 4 variables" in err
        for extra in ((), ("--unchecked",)):
            apart = run(capsys, "reduce", "--space", "--1-", *extra, MODEL_EXAMPLE)
            joined = run(capsys, "reduce", "--space=--1-", *extra, MODEL_EXAMPLE)
            assert apart == joined
            assert apart[0] == (0 if extra else 2)
        assert run(capsys, "reduce", "--space", "----", MODEL_EXAMPLE)[1] == EXAMPLE_TEXT


class TestBound:
    def test_example(self, capsys, example_file):
        code, out, _ = run(capsys, "bound", example_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "cyclic attractors >= 1"
        assert lines[1] == "00-- oscillating among: v3 v4"

    def test_json(self, capsys, example_file):
        code, out, _ = run(capsys, "--json", "bound", example_file)
        doc = json.loads(out)
        assert doc == {
            "lower_bound": 1,
            "witnesses": ["00--"],
            "oscillating_candidates": [["v3", "v4"]],
        }


    def test_limit_truncation_exits_3(self, capsys, example_file):
        # the first minimal trap space found is the steady state 1101
        code, out, err = run(capsys, "--limit", "1", "bound", example_file)
        assert (code, out, err) == (3, "cyclic attractors >= 0\n", LIMIT_WARNING)


class TestCommitment:
    def test_example_csv(self, capsys, example_file):
        code, out, _ = run(capsys, "commitment", example_file)
        assert code == 0
        assert out.splitlines() == [
            "row,00--,1---",
            "steady,0,1",
            "sync-cyclic,1,0",
            "async-cyclic,1,0",
        ]

    def test_cyclic_rows_dropped_beyond_cap(self, capsys, example_file):
        code, out, err = run(capsys, "--stg-cap", "3", "commitment", example_file)
        assert code == 3
        assert out.splitlines() == ["row,00--,1---", "steady,0,1"]
        assert err == ("resource limit: the state transition graph exceeds --stg-cap; "
                       "the attractor rows are left out\n")


    def test_limit_truncation_exits_3(self, capsys, example_file):
        code, out, err = run(capsys, "--limit", "1", "commitment", example_file)
        assert code == 3
        assert out == "row,1---\nsteady,1\nsync-cyclic,0\nasync-cyclic,0\n"
        assert err == LIMIT_WARNING


class TestAudit:
    def test_example(self, capsys, example_file):
        code, out, _ = run(capsys, "audit", "--update", "sync", example_file)
        assert code == 0
        lines = out.splitlines()
        assert "00-- attractors=1 tight" in lines
        assert "1101 attractors=1 tight" in lines
        assert lines[-1] == "attractors outside all minimal trap spaces: 0"

    def test_json(self, capsys, example_file):
        code, out, _ = run(capsys, "--json", "audit", example_file)
        doc = json.loads(out)
        assert doc["update"] == "async"
        assert doc["outside"] == []


    def test_limit_truncation_exits_3(self, capsys, example_file):
        # the async attractor in 00-- is outside the one space listed
        code, out, err = run(capsys, "--limit", "1", "audit", example_file)
        assert code == 3
        assert out == "1101 attractors=1 tight\nattractors outside all minimal trap spaces: 1\n"
        assert err == LIMIT_WARNING


def count_search_mask_builds(monkeypatch):
    """The list of graphs whose search masks are built from now on."""
    built = []

    def counting_build(self):
        built.append(self)
        return build(self)

    build = primes.PrimeImplicantGraph._build_search_masks
    monkeypatch.setattr(primes.PrimeImplicantGraph, "_build_search_masks", counting_build)
    return built


class TestCheck:
    def test_example_passes(self, capsys, example_file):
        code, out, _ = run(capsys, "check", example_file)
        assert code == 0
        assert out == "OK\n"

    def test_random_networks_pass(self, capsys, tmp_path):
        for seed in range(3):
            path = tmp_path / f"r{seed}.bnet"
            assert run(capsys, "random", "--n", "7", "--seed", str(seed),
                       "-o", str(path))[0] == 0
            code, out, _ = run(capsys, "check", str(path))
            assert code == 0 and out == "OK\n"

    def test_identity_network_with_every_subspace_a_trap_space(self, capsys, tmp_path):
        # all 3^8 subspaces are trap spaces: 256 minimal ones (the states)
        # and 16 maximal ones for the oracle's lists to select
        path = tmp_path / "identity.bnet"
        path.write_text("targets, factors\n" + "".join(f"v{i}, v{i}\n" for i in range(1, 9)),
                        encoding="utf-8")
        assert run(capsys, "check", str(path))[:2] == (0, "OK\n")

    def test_limit_truncation_exits_3(self, capsys, example_file):
        code, out, err = run(capsys, "--limit", "1", "check", example_file)
        assert (code, out, err) == (3, "", LIMIT_WARNING)

    def test_timed_out_lists_are_still_checked(self, capsys, example_file, monkeypatch):
        # a partial list holding a space the oracle rejects is a mismatch
        def wrong_max(*args, **kwargs):
            wrong = ArcSetSolution((), Subspace.from_str("0---"))
            raise SolverTimeoutError("solver wall-clock budget exhausted",
                                     EnumerationResult([wrong], "timeout", 1, 0, 0.0))

        monkeypatch.setattr(cli._solver, "max_trap_spaces", wrong_max)
        code, out, err = run(capsys, "--timeout", "0", "check", example_file)
        assert (code, out) == (2, "")
        assert "MISMATCH max: solver=['0---']" in err

    def test_three_searches_share_one_bitmask_view(self, capsys, example_file,
                                                   monkeypatch):
        built = []

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        init = primes.PrimeImplicantGraph.__init__
        monkeypatch.setattr(primes.PrimeImplicantGraph, "__init__", counting_init)
        searches = []

        def counting_enumerate(*args, **kwargs):
            searches.append(args[1])
            return enumerate_extremal(*args, **kwargs)

        enumerate_extremal = cli._solver.enumerate_extremal
        monkeypatch.setattr(cli._solver, "enumerate_extremal", counting_enumerate)
        masks_built = count_search_mask_builds(monkeypatch)
        assert run(capsys, "check", example_file)[:2] == (0, "OK\n")
        assert len(searches) == 3
        assert len(built) == 1
        assert masks_built == [built[0]]

    def test_search_masks_are_built_by_searches_only(self, capsys, example_file,
                                                     monkeypatch):
        masks_built = count_search_mask_builds(monkeypatch)
        for argv in (["encode", "--format", "asp", "--mode", "min"],
                     ["encode", "--format", "asp", "--mode", "max"],
                     ["encode", "--format", "ilp", "--mode", "min"],
                     ["encode", "--format", "ilp", "--mode", "max"],
                     ["primes"], ["--json", "primes"]):
            assert run(capsys, *argv, example_file)[0] == 0
        assert masks_built == []
        assert run(capsys, "trapspaces", "--mode", "max", example_file)[0] == 0
        assert len(masks_built) == 1

    def test_only_primes_builds_the_arc_view(self, capsys, example_file, monkeypatch):
        # inside primes only the arc view reads tails back as literals
        built = []

        def counting_literals(litmask):
            built.append(litmask)
            return literals(litmask)

        literals = primes.literals
        monkeypatch.setattr(primes, "literals", counting_literals)
        for argv in (["check"], ["trapspaces"], ["--json", "trapspaces", "--mode", "max"],
                     ["steady"], ["encode", "--format", "asp", "--mode", "min"],
                     ["encode", "--format", "ilp", "--mode", "max"]):
            assert run(capsys, *argv, example_file)[0] == 0
        assert run(capsys, "bench", "--sizes", "4", "--reps", "1")[0] == 0
        assert built == []
        assert run(capsys, "primes", example_file)[0] == 0
        assert len(built) == 11

    def test_truncated_lists_are_still_checked(self, capsys, example_file, monkeypatch):
        # a truncated list holding a space the oracle rejects is a mismatch
        def wrong_max(*args, **kwargs):
            report = solve_max(*args, **kwargs)
            wrong = ArcSetSolution((), Subspace.from_str("0---"))
            return EnumerationResult([wrong], report.stop, report.iterations, report.nodes,
                                     report.elapsed)

        solve_max = cli._solver.max_trap_spaces
        monkeypatch.setattr(cli._solver, "max_trap_spaces", wrong_max)
        code, _, err = run(capsys, "--limit", "1", "check", example_file)
        assert code == 2
        assert "MISMATCH max: solver=['0---']" in err

    def test_support_cap_counts_supports_not_variables(self, capsys, tmp_path):
        # six variables, each function reading at most two of them, pass
        # cap 4: the oracle's tables span all six variables but the cap
        # applies to each function's syntactic support
        names = [f"x{i}" for i in range(6)]
        lines = ["targets, factors"] + [
            f"{name}, {names[(i + 1) % 6]} & !{names[(i + 2) % 6]}"
            for i, name in enumerate(names)
        ]
        path = tmp_path / "narrow.bnet"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(capsys, "--support-cap", "4", "check", str(path))[:2] == (0, "OK\n")
        lines[1] = f"x0, {' | '.join(names[1:])}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "--support-cap", "4", "check", str(path))
        assert code == 3
        assert "support of size 5 exceeds cap of 4" in err


# every search stops before its first leaf, so no space is listed and
# both attractors of the example count as outside
@pytest.mark.parametrize("command, want_out", [
    ("bound", "cyclic attractors >= 0\n"),
    ("commitment", "row\nsteady\nsync-cyclic\nasync-cyclic\n"),
    ("audit", "attractors outside all minimal trap spaces: 2\n"),
    ("check", ""),
])
def test_a_timed_out_search_prints_what_it_found(capsys, command, want_out):
    code, out, err = run(capsys, "--timeout", "0", command, MODEL_EXAMPLE)
    assert (code, out, err) == (3, want_out, TIMEOUT_WARNING)


class TestRandom:
    def test_stdout_round_trips(self, capsys):
        code, out, _ = run(capsys, "random", "--n", "6", "--seed", "9")
        assert code == 0
        assert parse_network(out).n == 6

    def test_deterministic(self, capsys):
        a = run(capsys, "random", "--n", "6", "--seed", "9")
        b = run(capsys, "random", "--n", "6", "--seed", "9")
        assert a == b

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "net.bnet"
        code, out, _ = run(capsys, "random", "--n", "5", "-o", str(path))
        assert code == 0 and out == ""
        assert parse_network(path.read_text()).n == 5

    def test_degree_cap_above_n_is_clamped_to_n(self, capsys):
        code, out, err = run(capsys, "random", "--n", "10", "--degree-cap", "20")
        assert code == 0 and err == ""
        assert out == write_network(generate(GeneratorConfig(n=10, degree_cap=20)))

    @pytest.mark.parametrize("argv", [
        ("random", "--n", "30", "--k", "25", "--degree-cap", "25"),  # 2^25 rows per function
        ("--support-cap", "4", "random", "--n", "10", "--degree-cap", "5"),
    ])
    def test_degree_above_support_cap_exits_3_before_generating(self, capsys, monkeypatch,
                                                                tmp_path, argv):
        def refuse(cfg):
            raise AssertionError("generate called")

        monkeypatch.setattr(randgen, "generate", refuse)
        path = tmp_path / "net.bnet"
        code, out, err = run(capsys, *argv, "-o", str(path))
        assert code == 3 and out == ""
        assert "resource limit" in err and "exceeds cap" in err
        assert not path.exists()


class TestGeneratorValues:
    @pytest.mark.parametrize("argv", [
        ("random", "--n", "0"),
        ("random", "--n", "4", "--k", "-1"),
        ("random", "--n", "4", "--degree-cap", "0"),
        ("bench", "--sizes", "3,-2"),
        ("bench", "--sizes", ","),
        ("bench", "--sizes", "3", "--k", "-1"),
    ])
    def test_out_of_range_values_exit_1_before_generating(self, capsys, monkeypatch, argv):
        def refuse(cfg):
            raise AssertionError("generate called")

        monkeypatch.setattr(randgen, "generate", refuse)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "usage error" in err and argv[-2] in err


class TestBench:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "6,8", "--reps", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == ("n,seed,primes,n_min,mean_fixed_min,ms_min,"
                            "n_max,mean_fixed_max,ms_max")
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["6", "6", "8", "8"]
        assert [r[1] for r in rows] == ["0", "1", "2", "3"]
        assert all(int(r[2]) > 0 for r in rows)

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_is_a_usage_error(self, capsys, reps):
        code, out, err = run(capsys, "bench", "--sizes", "6", "--reps", reps)
        assert code == 1
        assert out == ""
        assert "usage error" in err and "--reps" in err

    def test_timeout_keeps_the_finished_rows(self, capsys, monkeypatch):
        # the max-mode solve of the first 8-variable network times out
        def max_timing_out(net, *args, **kwargs):
            if net.n == 8:
                raise SolverTimeoutError("solver wall-clock budget exhausted",
                                         EnumerationResult([], "timeout", 1, 0, 0.0))
            return solve_max(net, *args, **kwargs)

        solve_max = cli._solver.max_trap_spaces
        monkeypatch.setattr(cli._solver, "max_trap_spaces", max_timing_out)
        code, out, err = run(capsys, "bench", "--sizes", "6,8", "--reps", "2")
        assert code == 3
        lines = out.splitlines()
        assert lines[1].startswith("n,seed,")
        assert [line.split(",")[:2] for line in lines[2:]] == [["6", "0"], ["6", "1"]]
        assert "results printed are those found before it" in err

    def test_limit_keeps_the_rows_and_exits_3(self, capsys):
        # seeds 0, 2, 5 and 6 have 2, 4, 2 and 2 minimal trap spaces
        code, out, err = run(capsys, "--limit", "1", "bench", "--sizes", "6", "--reps", "8")
        assert code == 3
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert [r[1] for r in rows] == [str(seed) for seed in range(8)]
        assert all(r[3] == "1" for r in rows)
        assert "truncated by --limit" in err

    def test_bad_sizes_exits_1(self, capsys):
        code, _, err = run(capsys, "bench", "--sizes", "6,x")
        assert code == 1
        assert "usage error" in err


class TestEncode:
    @pytest.mark.parametrize("fmt,ext", [("asp", "asp"), ("ilp", "lp")])
    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_matches_golden_fixtures(self, capsys, example_file, fmt, ext, mode):
        code, out, _ = run(capsys, "encode", "--format", fmt, "--mode", mode,
                           example_file)
        assert code == 0
        with open(fixture_path(f"example_{mode}.{ext}"), encoding="utf-8") as fh:
            assert out == fh.read()

    def test_output_file(self, capsys, example_file, tmp_path):
        path = tmp_path / "enc.lp"
        code, out, _ = run(capsys, "encode", "--format", "ilp", "--mode", "min",
                           "-o", str(path), example_file)
        assert code == 0 and out == ""
        assert path.read_text().startswith("\\ stable and consistent")

    def test_mode_is_required(self, capsys, example_file):
        code, _, err = run(capsys, "encode", "--format", "asp", example_file)
        assert code == 1
        assert "usage error" in err


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "primes", str(tmp_path / "missing.bnet"))
        assert code == 2
        assert "input error" in err

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.bnet"
        path.write_text("not a header\n", encoding="utf-8")
        assert run(capsys, "primes", str(path))[0] == 2

    def test_support_cap_exits_3(self, capsys, tmp_path):
        path = tmp_path / "wide.bnet"
        names = [f"x{i}" for i in range(6)]
        lines = ["targets, factors"] + [
            f"{name}, {' | '.join(names)}" for name in names
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "--support-cap", "5", "primes", str(path))
        assert code == 3
        assert "resource limit" in err

    @pytest.mark.parametrize("factor", [
        "(" * 3000 + "a" + ")" * 3000,
        "!" * 3000 + "a",
    ], ids=["parentheses", "negations"])
    def test_deep_nesting_is_an_input_error(self, capsys, tmp_path, factor):
        path = tmp_path / "deep.bnet"
        path.write_text(f"targets, factors\na, {factor}\n", encoding="utf-8")
        code, _, err = run(capsys, "primes", str(path))
        assert code == 2
        assert "input error" in err
        assert "Traceback" not in err

    def test_support_cap_reaches_the_analysis_commands(self, capsys, tmp_path):
        path = tmp_path / "wide.bnet"
        names = [f"x{i}" for i in range(6)]
        lines = ["targets, factors"] + [f"{name}, {' | '.join(names)}" for name in names]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(capsys, "--support-cap", "6", "bound", str(path))[0] == 0
        code, _, err = run(capsys, "--support-cap", "5", "bound", str(path))
        assert code == 3
        assert "resource limit" in err

    def test_support_cap_applies_to_syntactic_support(self, capsys, tmp_path):
        # six syntactic variables but one essential one still exceed cap 5
        path = tmp_path / "fictitious.bnet"
        names = [f"x{i}" for i in range(6)]
        factor = f"x0 | ({' & '.join(names[1:])} & !x1)"
        lines = ["targets, factors"] + [f"{name}, {factor}" for name in names]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(capsys, "--support-cap", "6", "primes", str(path))[0] == 0
        code, _, err = run(capsys, "--support-cap", "5", "primes", str(path))
        assert code == 3
        assert "resource limit" in err

    @pytest.mark.parametrize("command", ["trapspaces", "steady", "check"])
    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_a_usage_error(self, capsys, example_file, command, limit):
        code, out, err = run(capsys, "--limit", limit, command, example_file)
        assert code == 1
        assert out == ""
        assert "usage error" in err and "--limit" in err

    @pytest.mark.parametrize("command", [
        ["trapspaces"], ["trapspaces", "--mode", "max"], ["steady"],
        ["check"], ["bound"], ["audit"], ["commitment"],
    ], ids=" ".join)
    def test_limit_equal_to_the_count_is_complete(self, capsys, example_file, command):
        # two minimal and two maximal trap spaces, one steady state: a limit
        # of 2 cuts nothing short
        code, out, err = run(capsys, "--limit", "2", *command, example_file)
        assert (code, err) == (0, "")
        assert out == run(capsys, *command, example_file)[1]

    @pytest.mark.parametrize("timeout", ["nan", "-1", "-0.5"])
    def test_timeout_not_a_budget_is_a_usage_error(self, capsys, example_file, timeout):
        # NaN never compares above a clock reading, so it would lift the budget
        code, out, err = run(capsys, "--timeout", timeout, "trapspaces", example_file)
        assert code == 1
        assert out == ""
        assert "usage error" in err and "--timeout" in err

    @pytest.mark.parametrize("flag,command", [
        ("--support-cap", "primes"),
        ("--stg-cap", "attractors"),
    ])
    def test_negative_cap_is_a_usage_error(self, capsys, example_file, flag, command):
        code, out, err = run(capsys, flag, "-1", command, example_file)
        assert code == 1
        assert out == ""
        assert "usage error" in err and flag in err

    @pytest.mark.parametrize("k", ["nan", "inf"])
    def test_non_finite_k_is_a_usage_error(self, capsys, tmp_path, k):
        path = tmp_path / "net.bnet"
        code, _, err = run(capsys, "random", "--n", "4", "--k", k, "-o", str(path))
        assert code == 1 and "usage error" in err and "--k" in err
        assert not path.exists()
        code, _, err = run(capsys, "bench", "--sizes", "4", "--reps", "1", "--k", k)
        assert code == 1 and "usage error" in err and "--k" in err


class TestInProcessReuse:
    def test_calls_do_not_share_state(self, capsys, example_file):
        def limited():
            code, out, err = run(capsys, "--limit", "1", "--json", "trapspaces",
                                 example_file)
            doc = json.loads(out)
            del doc["stats"]["elapsed"]
            return code, doc, err

        with open(fixture_path("example_min.lp"), encoding="utf-8") as fh:
            ilp = fh.read()
        first = limited()
        assert first[0] == 3
        assert len(first[1]["spaces"]) == 1
        assert run(capsys, "encode", "--format", "ilp", "--mode", "min",
                   example_file)[:2] == (0, ilp)
        code, _, err = run(capsys, "encode", "--format", "ilp", example_file)
        assert code == 1 and "usage error" in err
        assert run(capsys, "check", example_file)[:2] == (0, "OK\n")
        # without --limit the default applies again
        code, out, _ = run(capsys, "--json", "trapspaces", example_file)
        assert code == 0
        assert len(json.loads(out)["spaces"]) == 2
        assert limited() == first


# one argv tail per command form; the golden hash runs each on every network
_GOLDEN_COMMANDS = [
    ["primes"],
    ["trapspaces"],
    ["trapspaces", "--mode", "max"],
    ["trapspaces", "--mode", "all"],
    ["steady"],
    ["attractors"],
    ["attractors", "--update", "sync"],
    ["reduce", "--space", None],
    ["bound"],
    ["commitment"],
    ["audit", "--update", "sync"],
    ["check"],
    ["encode", "--format", "ilp", "--mode", "min"],
]


def test_golden_cli_hash(capsys, tmp_path):
    # SHA-256 over (argv, exit code, stdout, stderr) of 13 command forms x
    # {plain, --json, --timeout 0} on the example, the negation cycle (whose
    # only minimal trap space is the whole space) and the first 12 networks
    # of corpus(200); elapsed times are masked and the file path replaced by
    # a placeholder
    texts = [EXAMPLE_TEXT, NEGATION_CYCLE_TEXT] + [write_network(net) for net in corpus(12)]
    digest = hashlib.sha256()
    for i, text in enumerate(texts):
        path = tmp_path / f"net{i}.bnet"
        path.write_text(text, encoding="utf-8")
        n = len(text.splitlines()) - 1
        for command in _GOLDEN_COMMANDS:
            # the pattern fixes the first variable to 0 and frees the rest
            tail = [word or "0" + "-" * (n - 1) for word in command]
            for flags in ([], ["--json"], ["--timeout", "0"]):
                argv = [*flags, *tail, str(path)]
                code, out, err = run(capsys, *argv)
                out = re.sub(r'"elapsed": [^,}]+', '"elapsed": 0', out)
                record = [argv[:-1], code, out, err.replace(str(path), "<file>")]
                digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == (
        "150d9c968d3de86a0fd38eac17dfc2dddac182e87e76a9839cf9f80ddf963343")


def test_import_loads_no_process_pool_and_no_dataclasses():
    # dataclasses imports inspect (and with it ast, dis and tokenize) and
    # builds each class's methods with exec, which every CLI call would pay
    code = ("import sys, trapspaces.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process', "
            "'dataclasses', 'inspect') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out == "[]\n"


def test_solver_import_loads_no_oracle():
    # the solver must not depend on the oracle that checks it; the package's
    # __init__ imports every module, so the solver loads under a bare package
    code = ("import importlib.util, sys, types; pkg = types.ModuleType('trapspaces'); "
            "pkg.__path__ = importlib.util.find_spec('trapspaces').submodule_search_locations; "
            "sys.modules['trapspaces'] = pkg; import trapspaces.solver; "
            "print([m in sys.modules for m in ('trapspaces.solver', 'trapspaces.dynamics')])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out == "[True, False]\n"


@pytest.mark.parametrize("argv, want_code", [
    (["check", MODEL_EXAMPLE], 0),
    (["--limit", "0", "steady", MODEL_EXAMPLE], 1),
])
def test_module_entry_point_matches_run(capsys, argv, want_code):
    # ``python -m trapspaces.cli`` goes through ``main``, which exits with
    # the code ``run`` returns, as the installed ``trapspaces`` script does
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "trapspaces.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == want_code
    assert done.stdout == ("OK\n" if want_code == 0 else "")
    assert ("usage error" in done.stderr) == (want_code == 1)
    assert run(capsys, *argv)[:2] == (want_code, done.stdout)
