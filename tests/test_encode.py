import hashlib

import pytest

from trapspaces import GeneratorConfig, build_graph, generate, parse_network
from trapspaces.encode import _atom_names, emit_asp, emit_ilp
from trapspaces.errors import TrapSpacesError

from conftest import corpus, fixture_path


def _fixture(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()


class TestGoldenFixtures:
    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_asp_byte_exact(self, example_graph, mode):
        assert emit_asp(example_graph, mode) == _fixture(f"example_{mode}.asp")

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_ilp_byte_exact(self, example_graph, mode):
        assert emit_ilp(example_graph, mode) == _fixture(f"example_{mode}.lp")


class TestAspShape:
    def test_arc_fact_lines(self, example_graph):
        lines = emit_asp(example_graph, "min").splitlines()
        assert "head(v1,0,a3). tail(v1,0,a3). tail(v2,0,a3)." in lines
        assert "head(v4,1,a10). tail(v3,0,a10)." in lines
        head_facts = [ln for ln in lines if ln.startswith("head(")]
        assert len(head_facts) == 11

    def test_rules_present(self, example_graph):
        text = emit_asp(example_graph, "max")
        assert "{x(ID) : head(v,c,ID)}." in text
        assert ":- x(ID1), tail(v,c,ID1), not x(ID2): head(v,c,ID2)." in text
        assert ":- x(ID1), x(ID2), head(v,1,ID1), head(v,0,ID2)." in text

    def test_nonempty_constraint_only_in_min_mode(self, example_graph):
        assert ":- {x(_)} 0." in emit_asp(example_graph, "min")
        assert ":- {x(_)} 0." not in emit_asp(example_graph, "max")

    def test_mode_comments(self, example_graph):
        assert "--dom-mod=6" in emit_asp(example_graph, "min")
        assert "--dom-mod=7" in emit_asp(example_graph, "max")


class TestIlpShape:
    def test_objective_direction(self, example_graph):
        assert emit_ilp(example_graph, "min").splitlines()[5] == "Minimize"
        assert emit_ilp(example_graph, "max").splitlines()[5] == "Maximize"

    def test_linking_constraints(self, example_graph):
        text = emit_ilp(example_graph, "max")
        assert " ilp1_v1_1: y_v1_1 - x_a1 - x_a2 <= 0" in text
        assert " ilp2_a3_v2: x_a3 - y_v2_0 <= 0" in text
        assert " ilp3_v1: y_v1_0 + y_v1_1 <= 1" in text

    def test_nonempty_row_only_in_min_mode(self, example_graph):
        assert " nonempty:" in emit_ilp(example_graph, "min")
        assert " nonempty:" not in emit_ilp(example_graph, "max")

    def test_binary_section_covers_all_indicators(self, example_graph):
        lines = emit_ilp(example_graph, "min").splitlines()
        names = lines[lines.index("Binary") + 1].split()
        assert len(names) == 11 + 2 * 4
        assert names[0] == "x_a1" and names[-1] == "y_v4_1"

    def test_unprovidable_literal_forced_to_zero(self):
        # constant function: no arc ever induces (a, 0)
        g = build_graph(parse_network("targets, factors\na, 1\n"))
        assert " ilp1_a_0: y_a_0 <= 0" in emit_ilp(g, "max")


class TestAtomNames:
    def test_sanitization(self):
        assert _atom_names(("Foo", "NF-kB", "9lives", "_x")) == [
            "foo",
            "nf_kb",
            "v9lives",
            "v_x",
        ]

    def test_collision_gets_positional_suffix(self):
        assert _atom_names(("A-1", "a_1")) == ["a_1", "a_1_2"]

    def test_renamed_atoms_used_throughout(self):
        net = parse_network("targets, factors\nNF_kB, NF_kB\n")
        text = emit_asp(build_graph(net), "max")
        assert "head(nf_kb,1,a1)." in text
        assert "%   nf_kb = NF_kB" in text


class TestModeValidation:
    def test_unknown_mode(self, example_graph):
        with pytest.raises(TrapSpacesError):
            emit_asp(example_graph, "all")
        with pytest.raises(TrapSpacesError):
            emit_ilp(example_graph, "all")


# SHA-256 of the ASP and ILP text, min and max mode, on corpus(200) and the
# eight dense-export networks, recorded when the encoders read the arc list
# of HyperArc records
GOLDEN_ENCODING_SHA256 = "6ea0e99d1cefe4e416b3238898f28d1591e33073f08609bc61cec0966e3e2c0a"


def test_golden_encoding_hash():
    dense = [generate(GeneratorConfig(n=10, k=5, seed=s, degree_cap=6)) for s in range(8)]
    digest = hashlib.sha256()
    for net in [*corpus(200), *dense]:
        g = build_graph(net)
        for emit in (emit_asp, emit_ilp):
            for mode in ("min", "max"):
                digest.update(emit(g, mode).encode())
    assert digest.hexdigest() == GOLDEN_ENCODING_SHA256
