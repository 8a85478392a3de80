import pytest

from trapspaces import GeneratorConfig, expr, generate
from trapspaces.bnet import load_network, parse_network, write_network
from trapspaces.errors import (
    ExpressionSyntaxError,
    NetworkFormatError,
    UnknownVariableError,
)

from conftest import EXAMPLE_TEXT, corpus, dense, literal_nodes


class TestParseNetwork:
    def test_running_example(self, example_net):
        assert example_net.variables == ("v1", "v2", "v3", "v4")
        assert example_net.n == 4

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# model description\n\n"
            "targets, factors\n"
            "a, b\n"
            "\n"
            "# the second variable\n"
            "b, !a\n"
        )
        net = parse_network(text)
        assert net.variables == ("a", "b")

    def test_header_is_case_and_space_insensitive(self):
        assert parse_network("Targets,Factors\na, a\n").variables == ("a",)

    def test_missing_header(self):
        with pytest.raises(NetworkFormatError):
            parse_network("a, b\nb, a\n")

    def test_empty_file(self):
        with pytest.raises(NetworkFormatError):
            parse_network("   \n\n")

    def test_line_without_comma(self):
        with pytest.raises(NetworkFormatError):
            parse_network("targets, factors\njust_a_name\n")

    def test_bad_variable_name(self):
        with pytest.raises(NetworkFormatError):
            parse_network("targets, factors\n2fast, 1\n")

    def test_duplicate_names(self):
        with pytest.raises(NetworkFormatError):
            parse_network("targets, factors\na, 1\na, 0\n")

    def test_forward_references_allowed(self):
        # a variable may appear in a factor before its own line
        net = parse_network("targets, factors\na, b\nb, a\n")
        assert net.n == 2

    def test_unknown_variable_in_factor(self):
        with pytest.raises(UnknownVariableError):
            parse_network("targets, factors\na, ghost\n")

    def test_syntax_error_in_factor(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_network("targets, factors\na, a |\n")

    def test_expression_errors_name_the_line_and_variable(self):
        # line numbers count the file's lines, comments and blanks included
        text = "# model\ntargets, factors\n\na, b\nb, a & (b\n"
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_network(text)
        assert info.value.position == 6
        assert str(info.value) == (
            "line 5, variable 'b': expected ')', found '' (at position 6)")
        with pytest.raises(UnknownVariableError) as info:
            parse_network("targets, factors\na, a\nb, ghost | a\n")
        assert info.value.name == "ghost"
        assert str(info.value) == "line 3, variable 'b': unknown variable: 'ghost'"


def _literal_objects(net):
    """Variable index -> the distinct ``Var`` and ``Not(Var)`` node objects
    (by identity) across all functions of ``net``."""
    merged = {}
    for f in net.functions:
        for index, objects in literal_nodes(f).items():
            merged.setdefault(index, {}).update(objects)
    return merged


# general-route functions between split-route ones; "!!v1" keeps its inner
# "!v1" shared and its outer negation unshared
MIXED_ROUTES = ("targets, factors\nv1, v1 & !v2\nv2, (v1 | !v2) & !v1\nv3, !v2 | v3\n"
                "v4, ! v1\nv5, !v1 & v4 | !v3\nv6, (v3 & !v4) | !!v1\nv7, !v4 | !v1\n")


class TestLiteralTable:
    def test_one_literal_node_per_variable_per_file(self):
        # both routes build each literal once per file, not once per
        # function: at most one Var and one Not object per variable
        nets = [*corpus(200), *dense()]
        parsed = [parse_network(write_network(net)) for net in nets]
        assert parsed == nets
        for net in [*parsed, parse_network(MIXED_ROUTES)]:
            for objects in _literal_objects(net).values():
                kinds = [type(node) for node in objects.values()]
                assert kinds.count(expr.Var) <= 1 and kinds.count(expr.Not) <= 1

    def test_no_node_outlives_a_call(self):
        text = write_network(dense()[0])
        first, second = parse_network(text), parse_network(text)
        assert first == second
        ids = [set().union(*_literal_objects(net).values()) for net in (first, second)]
        assert ids[0] and not ids[0] & ids[1]

    @pytest.mark.parametrize("later", [
        "ghost", "v1 & ghost", "!v1 & !ghost | v2", "! ghost", "!!ghost", "!v1 & (v2",
        "v1 &", "v1 + v2", "! v1", "!!v1", "!v2 & v1 | !v1", "(v1 | !v2) & !v1", "0 | !v1"])
    def test_a_later_function_parses_as_on_its_own(self, later):
        # the first function fills the file's table with v1, v2 and !v2; a
        # later one still gets the tree, or the error, it gets on its own
        text = f"targets, factors\nv1, v1 & !v2\n\nv2, {later}\nv3, !v2 & v1\n"
        vocab = ("v1", "v2", "v3")
        try:
            alone = expr.parse_expression(later, vocab)
        except (ExpressionSyntaxError, UnknownVariableError) as exc:
            with pytest.raises(type(exc)) as info:
                parse_network(text)
            assert str(info.value) == f"line 4, variable 'v2': {exc}"
            assert getattr(info.value, "position", None) == getattr(exc, "position", None)
            return
        functions = parse_network(text).functions
        assert functions[1:] == (alone, expr.parse_expression("!v2 & v1", vocab))


class TestWriteNetwork:
    def test_round_trip(self, example_net):
        assert parse_network(write_network(example_net)) == example_net

    def test_round_trip_corpus_and_dense_networks(self):
        # corpus(200) and the dense-export networks of both benchmark scales
        dense = [generate(GeneratorConfig(n=n, k=k, seed=s, degree_cap=cap))
                 for n, k, cap, count in ((10, 5.0, 6, 8), (16, 7.0, 9, 3))
                 for s in range(count)]
        for net in [*corpus(200), *dense]:
            assert parse_network(write_network(net)) == net

    def test_example_byte_exact(self, example_net):
        assert write_network(example_net) == EXAMPLE_TEXT


class TestLoadNetwork:
    def test_load_from_file(self, example_file, example_net):
        assert load_network(example_file) == example_net

    def test_byte_order_mark_is_skipped(self, tmp_path, example_net):
        path = tmp_path / "bom.bnet"
        path.write_bytes(b"\xef\xbb\xbf" + EXAMPLE_TEXT.encode("utf-8"))
        assert load_network(str(path)) == example_net

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_network(str(tmp_path / "missing.bnet"))
