import dataclasses
import json

import pytest

from trapspaces import cli, parse_network
from trapspaces.space import Subspace

from conftest import EXAMPLE_TEXT, NEGATION_CYCLE_TEXT, fixture_path


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
        code, _, _ = run(capsys, "reduce", "--space", "1-", example_file)
        assert code == 2


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
        code, out, err = run(capsys, "--limit", "1", "bound", example_file)
        assert code == 3
        assert out.startswith("cyclic attractors >= ")
        assert "truncated" in err


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
        code, out, _ = run(capsys, "--stg-cap", "3", "commitment", example_file)
        assert code == 0
        assert out.splitlines() == ["row,00--,1---", "steady,0,1"]


    def test_limit_truncation_exits_3(self, capsys, example_file):
        code, out, err = run(capsys, "--limit", "1", "commitment", example_file)
        assert code == 3
        assert len(out.splitlines()[0].split(",")) == 2  # the row label and one space
        assert "truncated" in err


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
        code, out, err = run(capsys, "--limit", "1", "audit", example_file)
        assert code == 3
        assert out.splitlines()[-1].startswith("attractors outside")
        assert "truncated" in err


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

    def test_limit_truncation_exits_3(self, capsys, example_file):
        code, out, err = run(capsys, "--limit", "1", "check", example_file)
        assert code == 3
        assert out == ""
        assert "truncated" in err and "MISMATCH" not in err

    def test_truncated_lists_are_still_checked(self, capsys, example_file, monkeypatch):
        # a truncated list holding a space the oracle rejects is a mismatch
        def wrong_max(*args, **kwargs):
            report = solve_max(*args, **kwargs)
            return dataclasses.replace(report, spaces=[Subspace.from_str("0---")])

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

    def test_parallel_jobs_match_serial(self, capsys):
        serial = run(capsys, "bench", "--sizes", "6", "--reps", "2")
        parallel = run(capsys, "bench", "--sizes", "6", "--reps", "2",
                       "--jobs", "2")
        strip = lambda out: [line.rsplit(",", 1)[0].rsplit(",", 4)[0]
                             for line in out.splitlines()[2:]]
        # timing columns differ; the structural columns must not
        assert strip(serial[1]) == strip(parallel[1])

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
