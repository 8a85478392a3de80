import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapspaces import expr, parse_network, write_network
from trapspaces.errors import (
    ExpressionSyntaxError,
    SupportTooLargeError,
    TrapSpacesError,
    UnknownVariableError,
)
from trapspaces.space import Subspace

from conftest import assert_value_semantics, corpus, dense, expressions, literal_nodes
from reference import (constant_value, contains_state, essential_support, evaluate,
                       format_expression, mentioned_variables)

N = 5  # variables available to generated expressions

VOCAB = ("v1", "v2", "v3", "v4")


def parse(text, vocab=VOCAB):
    return expr.parse_expression(text, vocab)


def _scan(text):
    """The start of every token of ``text`` up to its first character
    outside the syntax, and that character's position (None if none)."""
    starts, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        starts.append(i)
        if c.isascii() and (c.isalpha() or c == "_"):  # an identifier
            i += 1
            while i < len(text) and text[i].isascii() and (text[i].isalnum() or text[i] == "_"):
                i += 1
        elif c in "01!&|()":
            i += 1
        else:
            return starts, i
    return starts, None


class TestParsing:
    def test_disjunction(self):
        assert parse("v1 | v2") == expr.Or((expr.Var(0), expr.Var(1)))

    def test_constant_literal(self):
        assert parse("0") == expr.Const(0)
        assert parse("1") == expr.Const(1)

    def test_precedence_not_over_and_over_or(self):
        got = parse("!(a & b) | c", ("a", "b", "c"))
        assert got == expr.Or(
            (expr.Not(expr.And((expr.Var(0), expr.Var(1)))), expr.Var(2))
        )
        # without parentheses, ! binds to a single factor and & beats |
        got = parse("!a & b | c", ("a", "b", "c"))
        assert got == expr.Or(
            (expr.And((expr.Not(expr.Var(0)), expr.Var(1))), expr.Var(2))
        )

    def test_nary_flattening_by_associativity(self):
        got = parse("v1 & v2 & v3")
        assert got == expr.And((expr.Var(0), expr.Var(1), expr.Var(2)))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse("v1 | ")
        assert info.value.position == 5

    def test_bad_character(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("v1 + v2")

    def test_unknown_variable_named(self):
        with pytest.raises(UnknownVariableError) as info:
            parse("v1 | bogus")
        assert info.value.name == "bogus"

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("v1 v2")

    @pytest.mark.parametrize("text,message,position", [
        ("v1 + v2", "unexpected character '+'", 3),  # bad character
        ("2", "unexpected character '2'", 0),
        ("v1 v2 +", "unexpected character '+'", 6),  # reported before the syntax error
        ("v1 | ", "unexpected token ''", 5),  # dangling operator
        ("v1 &", "unexpected token ''", 4),
        ("v1 | !", "unexpected token ''", 6),
        ("(v1 | v2", "expected ')', found ''", 8),  # unclosed parenthesis
        ("((v1)", "expected ')', found ''", 5),
        ("(v1 v2)", "expected ')', found 'v2'", 4),
        ("v1)", "unexpected token ')'", 2),  # stray parenthesis
        (")", "unexpected token ')'", 0),
        ("v1 | (v2 &) | v3", "unexpected token ')'", 10),
        ("v1 v2", "unexpected token 'v2'", 3),  # trailing token
        ("v1 !v2", "unexpected token '!'", 3),  # a negated identifier
        ("(v1 !v2)", "expected ')', found '!'", 4),
        ("!v1 !", "unexpected token '!'", 4),
        ("01", "unexpected token '1'", 1),
        ("v1 bogus", "unexpected token 'bogus'", 3),
        ("", "unexpected token ''", 0),  # empty text
        ("   ", "unexpected token ''", 3),
        # an unexpected character is reported before any earlier fault
        ("bogus +", "unexpected character '+'", 6),  # before an unknown variable
        pytest.param("(" * 201 + "v1 +", "unexpected character '+'", 204,
                     id="before-the-nesting-limit"),
        ("v1 & \u00e9", "unexpected character '\u00e9'", 5),
        ("v1 ! v2", "unexpected token '!'", 3),
        ("(v1 | !)", "unexpected token ')'", 7),
        ("((v1) v2)", "expected ')', found 'v2'", 6),
    ])
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse(text)
        assert info.value.position == position
        assert str(info.value) == f"{message} (at position {position})"

    @pytest.mark.parametrize("text", ["bogus", "v1 | bogus", "!(v2 & bogus)",
                                      "!bogus", "! bogus", "v1 & !!bogus"])
    def test_unknown_variable_error(self, text):
        with pytest.raises(UnknownVariableError) as info:
            parse(text)
        assert info.value.name == "bogus"

    def test_parentheses_are_not_flattened(self):
        a, b, c = expr.Var(0), expr.Var(1), expr.Var(2)
        assert parse("(v1 & v2) & v3") == expr.And((expr.And((a, b)), c))
        assert parse("v1 | (v2 | v3)") == expr.Or((a, expr.Or((b, c))))
        assert parse("!!(v1)") == expr.Not(expr.Not(a))

    @pytest.mark.parametrize("opener", ["(", "!", "!("])
    def test_nesting_limit(self, opener):
        closer = ")" * opener.count("(")
        levels = expr.MAX_NESTING // len(opener)
        deepest = opener * levels + "v1" + closer * levels
        assert expr.syntactic_support(parse(deepest)) == {0}
        with pytest.raises(ExpressionSyntaxError) as info:
            parse("!" + deepest)
        assert info.value.position == expr.MAX_NESTING
        assert "nesting deeper than" in str(info.value)
        # the limit is reported before an unknown variable inside it; for the
        # opener '!' the text is "!" * 201 + "bogus"
        with pytest.raises(ExpressionSyntaxError) as info:
            parse("!" + deepest.replace("v1", "bogus"))
        assert str(info.value) == f"nesting deeper than {expr.MAX_NESTING} (at position 200)"

    def test_nesting_limit_holds_for_a_repeated_negation(self):
        # the second '!v1' reuses the first one's node, yet opens a level
        deepest = "!v1 & " + "(" * expr.MAX_NESTING + "!v1" + ")" * expr.MAX_NESTING
        with pytest.raises(ExpressionSyntaxError) as info:
            parse(deepest)
        assert info.value.position == 6 + expr.MAX_NESTING
        assert "nesting deeper than" in str(info.value)

    def test_literal_nodes_are_shared(self):
        f = parse("!v1 & v2 | ! v1 & !v2 | v1 & !!v2")
        first, second, third = f.children
        assert first.children[0] is second.children[0]  # '! v1' is '!v1'
        assert first.children[0].child is third.children[0]
        assert second.children[1] is third.children[1].child
        assert first.children[1] is second.children[1].child

    def test_dense_networks_share_literal_nodes(self):
        # the text path of the dense-export benchmark: within one expression
        # every v is one node and every !v one node over it, and the parsed
        # network equals the generated one
        shared = 0
        for net in dense():
            parsed = parse_network(write_network(net))
            assert parsed == net
            for f in parsed.functions:
                variables, negations = {}, {}
                stack = [f]
                while stack:
                    g = stack.pop()
                    if isinstance(g, expr.Var):
                        assert variables.setdefault(g.index, g) is g
                    elif isinstance(g, expr.Not):
                        if isinstance(g.child, expr.Var):
                            assert negations.setdefault(g.child.index, g) is g
                            shared += 1
                        stack.append(g.child)
                    elif isinstance(g, (expr.And, expr.Or)):
                        stack.extend(g.children)
        assert shared > 1000  # the pin reaches the negated literals

    def test_nesting_counts_only_open_levels(self):
        f = parse(" & ".join(["!(!v1 | (v2))"] * 3 * expr.MAX_NESTING))
        assert len(f.children) == 3 * expr.MAX_NESTING

    @settings(max_examples=500, deadline=None)
    @given(text=st.lists(st.sampled_from(["v1", "v2", "bogus", "!", "&", "|", "(", ")", "0",
                                          "1", " ", "\t", "\u00a0", "\x1c", "+", "2",
                                          "\u00e9"]), max_size=16).map("".join))
    def test_error_contract(self, text):
        # the first character outside the syntax is the error; without one,
        # every syntax error points at a token or at the end of the text
        starts, bad = _scan(text)
        if bad is not None:
            with pytest.raises(ExpressionSyntaxError) as info:
                parse(text)
            assert str(info.value) == f"unexpected character {text[bad]!r} (at position {bad})"
            return
        try:
            parse(text)
        except ExpressionSyntaxError as exc:
            assert exc.position in starts or exc.position == len(text)
            assert not str(exc).startswith("unexpected character")
        except UnknownVariableError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(f=expressions(N))
    def test_format_round_trip(self, f):
        vocab = tuple(f"x{i}" for i in range(N))
        assert parse(expr.format_expression(f, vocab), vocab) == f


# "1v" is in the vocabulary but is no identifier: the text "1v" is the two
# tokens "1" and "v", so no route may resolve it to a variable
ROUTE_VOCAB = {name: i for i, name in enumerate(("v1", "v2", "v3", "1v"))}
_PADDING = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\x1c"])
_LITERALS = st.sampled_from(["v1", "!v1", "v2", "!v2", "v3", "0", "1"])
_MISSES = st.sampled_from(["1v", "x", "!x", "! v1", "!!v2", "!1", "v1 v2", "01", "+", "",
                           "v1)"])


def _sums_of_products(pieces):
    padded = st.tuples(_PADDING, pieces, _PADDING).map("".join)
    terms = st.lists(padded, min_size=1, max_size=4).map("&".join)
    return st.lists(terms, min_size=1, max_size=4).map("|".join)


# sums of products, then the same with pieces that miss the front door, and
# free mixtures of the tokens
ROUTE_TEXTS = st.one_of(
    _sums_of_products(_LITERALS),
    _sums_of_products(st.one_of(_LITERALS, _MISSES)),
    st.lists(st.sampled_from(["v1", "v2", "x", "1v", "!", "&", "|", "0", "1", " ", "\t",
                              "\u00a0", "\x1c", "+", "("]), max_size=12).map("".join),
)


def _outcome(parser, text):
    """The tree ``parser`` builds from ``text`` with its node sharing (each
    node in preorder as the index of its first occurrence), or the type,
    message and position of the error it raises."""
    try:
        f = parser(text, ROUTE_VOCAB)
    except TrapSpacesError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    first, sharing, stack = {}, [], [f]
    while stack:
        g = stack.pop()
        sharing.append(first.setdefault(id(g), len(first)))
        if isinstance(g, (expr.And, expr.Or)):
            stack.extend(reversed(g.children))
        elif isinstance(g, expr.Not):
            stack.append(g.child)
    return f, sharing


def _is_sum_of_products(text):
    """Whether ``text`` has no '(' and each '&'-piece of each '|'-term is,
    stripped, 0, 1, v or !v with v an identifier in the vocabulary."""
    pieces = [piece.strip() for term in text.split("|") for piece in term.split("&")]
    return "(" not in text and all(
        piece in ("0", "1")
        or (name := piece.removeprefix("!")) in ROUTE_VOCAB and name.isascii()
        and name.isidentifier()
        for piece in pieces)


class TestParsingRoutes:
    @settings(max_examples=500, deadline=None)
    @given(text=ROUTE_TEXTS)
    def test_front_door_agrees_with_the_general_parser(self, text):
        def general(text, vocabulary):  # with a fresh literal table
            return expr._parse_general(text, vocabulary, {"0": expr.FALSE, "1": expr.TRUE})

        assert _outcome(expr.parse_expression, text) == _outcome(general, text)
        table = {"0": expr.FALSE, "1": expr.TRUE}  # a fresh literal table
        taken = expr._sum_of_products(text, ROUTE_VOCAB, table) is not None
        assert taken == _is_sum_of_products(text)

    def test_benchmarked_texts_take_the_front_door(self, monkeypatch):
        # the inputs of both benchmark workloads (dense-export and the
        # corpus that corpus-check draws from) never reach the general parser
        nets = dense() + list(corpus(200))
        texts = [write_network(net) for net in nets]

        def general(text, index_of, nodes):
            raise AssertionError(f"general parser called on {text!r}")

        monkeypatch.setattr(expr, "_parse_general", general)
        for net, text in zip(nets, texts):
            assert parse_network(text) == net


class TestEvaluate:
    def test_example_f1_at_1101(self):
        x = Subspace.from_str("1101")
        assert evaluate(parse("v1 | v2"), x) == 1

    def test_example_f3_at_1101(self):
        x = Subspace.from_str("1101")
        assert evaluate(parse("!v1 & v4"), x) == 0

    def test_constant(self):
        assert evaluate(expr.Const(1), Subspace.from_str("0000")) == 1


def identity(p):
    """The index map that keeps every free variable of ``p`` where it is."""
    return {v: v for v in p.free_vars()}


class TestRestrict:
    def test_restrict_to_equivalent_variable(self):
        f = parse("v1 & v4")
        p = Subspace.from_str("1---")
        got = expr.restrict(f, p, identity(p))
        assert got == expr.Var(3)

    def test_empty_restriction_is_identity(self):
        f = parse("!v3")
        assert expr.restrict(f, Subspace.whole(4), identity(Subspace.whole(4))) == f

    def test_restrict_drops_satisfied_conjunct(self):
        f = parse("!v1 & v4")
        p = Subspace.from_str("--11")
        got = expr.restrict(f, p, identity(p))
        assert got == expr.Not(expr.Var(0))

    def test_result_never_mentions_fixed_variables(self):
        rng = random.Random(7)
        for _ in range(200):
            f = _random_expression(rng, 5)
            p = _random_subspace(rng, 5)
            assert not (expr.syntactic_support(expr.restrict(f, p, identity(p)))
                        & set(p.fixed_vars()))

    def test_soundness_on_random_inputs(self):
        # restrict(f, p) must agree with f on every state of p
        rng = random.Random(11)
        for _ in range(200):
            f = _random_expression(rng, 4)
            p = _random_subspace(rng, 4)
            g = expr.restrict(f, p, identity(p))
            for x in range(16):
                state = Subspace.from_state(4, x)
                if contains_state(p, x):
                    assert evaluate(g, state) == evaluate(f, state)


    @settings(max_examples=300, deadline=None)
    @given(f=expressions(N),
           text=st.text("01-", min_size=N, max_size=N).filter(lambda t: "-" in t))
    def test_renumbering_to_the_free_variables(self, f, text):
        # reduce's map: the free variables of p, in order, to 0..k-1 (k >= 1,
        # as reduce keeps at least one variable)
        p = Subspace.from_str(text)
        index_map = {v: j for j, v in enumerate(p.free_vars())}
        k = len(index_map)
        g = expr.restrict(f, p, index_map)
        # every index g mentions is a new one, so it mentions no fixed variable
        assert expr.syntactic_support(g) <= set(range(k))
        for y in range(1 << k):
            x = p.vals
            for v, j in index_map.items():
                if y >> (k - 1 - j) & 1:
                    x |= 1 << (N - 1 - v)
            assert (evaluate(g, Subspace.from_state(k, y))
                    == evaluate(f, Subspace.from_state(N, x)))
        for index, nodes in literal_nodes(g).items():
            kinds = [type(node) for node in nodes.values()]
            assert kinds.count(expr.Var) <= 1 and kinds.count(expr.Not) <= 1, index


class TestConstantValue:
    def test_restriction_makes_f1_constant(self):
        p = Subspace.from_str("00--")
        f = expr.restrict(parse("v1 | v2"), p, identity(p))
        assert constant_value(f) == 0

    def test_variable_is_not_constant(self):
        assert constant_value(expr.Var(2)) is None

    def test_hidden_contradiction(self):
        f = expr.And((expr.Var(0), expr.Not(expr.Var(0))))
        assert constant_value(f) == 0

    def test_agrees_with_exhaustive_evaluation(self):
        rng = random.Random(3)
        for _ in range(100):
            f = _random_expression(rng, 4)
            c = constant_value(f)
            values = {
                evaluate(f, Subspace.from_state(4, x)) for x in range(16)
            }
            assert (c is None) == (len(values) == 2)
            if c is not None:
                assert values == {c}


class TestEssentialSupport:
    def test_both_essential(self):
        assert essential_support(parse("v1 | v2")) == {0, 1}

    def test_constant_function_has_none(self):
        assert essential_support(expr.Or((expr.Var(0), expr.Const(1)))) == set()

    def test_tautological_disjunct_is_fictitious(self):
        f = expr.And((expr.Var(0), expr.Or((expr.Var(1), expr.Not(expr.Var(1))))))
        assert essential_support(f) == {0}


class TestFormatting:
    def test_round_trip_examples(self):
        # each text is the formatter's own rendering of its AST
        for text in ("v1 | v2", "v1 & v4", "!v1 & v4", "!v3",
                     "(v1 | v2) & !(v3 & v4)", "0", "1",
                     "!(v1 | v2)", "(v1 & v2) & v3", "v1 & v2 | (v3 | v1)",
                     "1 & !!v1", "!0 | v1 & !(!v2 | 0)"):
            f = parse(text)
            assert expr.format_expression(f, VOCAB) == text == format_expression(f, VOCAB)

    def test_round_trip_random(self):
        rng = random.Random(19)
        for _ in range(300):
            f = _random_expression(rng, 4)
            assert parse(expr.format_expression(f, VOCAB)) == f


def nested_expressions(n):
    """Random ASTs whose compound nodes mix literal children (``Var``,
    ``Not(Var)``, ``Const``) with nested ones: ``Not`` of ``And``/``Or``,
    ``Or`` inside ``And``, ``And`` inside ``And``, double negation."""
    variables = st.builds(expr.Var, st.integers(0, n - 1))
    leaves = st.one_of(variables, variables.map(expr.Not),
                       st.sampled_from([expr.FALSE, expr.TRUE]))

    def extend(inner):
        children = st.lists(inner, min_size=2, max_size=4).map(tuple)
        return st.one_of(
            st.builds(expr.And, children),
            st.builds(expr.Or, children),
            st.builds(expr.Not, inner),
            st.builds(lambda a: expr.Not(expr.Not(a)), inner),
        )

    return st.recursive(leaves, extend, max_leaves=16)


class TestWalkersAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(f=nested_expressions(N))
    def test_format_and_support_match_the_recursive_walks(self, f):
        vocab = tuple(f"x{i}" for i in range(N))
        text = expr.format_expression(f, vocab)
        assert text == format_expression(f, vocab)
        assert parse(text, vocab) == f
        assert expr.syntactic_support(f) == mentioned_variables(f)


NODES = {
    "Const": (lambda: expr.Const(value=1), lambda: expr.Const(1), "Const(value=1)",
              expr.FALSE),
    "Var": (lambda: expr.Var(index=0), lambda: expr.Var(0), "Var(index=0)", expr.Var(1)),
    "Not": (lambda: expr.Not(child=expr.Var(index=2)), lambda: expr.Not(expr.Var(2)),
            "Not(child=Var(index=2))", expr.Not(expr.Var(1))),
    "And": (lambda: expr.And(children=(expr.Var(0), expr.Not(expr.Var(1)))),
            lambda: parse("v1 & !v2"),
            "And(children=(Var(index=0), Not(child=Var(index=1))))", parse("v1 & v2")),
    "Or": (lambda: expr.Or(children=(expr.Var(0), expr.TRUE)), lambda: parse("v1 | 1"),
           "Or(children=(Var(index=0), Const(value=1)))", parse("v1 | 0")),
}


class TestValueSemantics:
    @pytest.mark.parametrize("name", sorted(NODES))
    def test_nodes_are_frozen_values(self, name):
        assert_value_semantics(*NODES[name])

    def test_nodes_of_different_kinds_differ(self):
        assert expr.Var(1) != expr.Const(1) and expr.Const(1) != expr.Var(1)
        children = (expr.Var(0), expr.Var(1))
        assert expr.And(children) != expr.Or(children)
        assert expr.Var(0) != 0 and expr.Var(0) != (0,)

    def test_constructors_keep_their_checks(self):
        for make in (lambda: expr.Const(2), lambda: expr.And((expr.Var(0),)),
                     lambda: expr.Or(children=())):
            with pytest.raises(ValueError):
                make()


class TestSharedNodes:
    def test_parser_uses_the_shared_constants(self):
        assert parse("0") is expr.FALSE and parse("1") is expr.TRUE
        assert parse("v1 & 1 | 0").children[1] is expr.FALSE

    def test_restrict_returns_unchanged_nodes(self):
        f = parse("!v1 & v2 | v3 & !v4 | !v1 & v3")
        assert expr.restrict(f, Subspace.whole(4), identity(Subspace.whole(4))) == f
        p = Subspace.from_str("--1-")  # v3 = 1
        g = expr.restrict(f, p, identity(p))
        assert g == parse("!v1 & v2 | !v4 | !v1")
        p = Subspace.from_str("0-1-")
        assert expr.restrict(f, p, identity(p)) is expr.TRUE

    def test_remap_builds_each_literal_once(self):
        f = expr.Or((expr.And((expr.Not(expr.Var(0)), expr.Var(1))),
                     expr.And((expr.Var(0), expr.Not(expr.Var(1)))),
                     expr.Not(expr.Not(expr.Var(1)))))
        g = expr.restrict(f, Subspace.whole(2), {0: 3, 1: 0})
        assert g == parse("!v4 & v1 | v4 & !v1 | !!v1")
        nodes = literal_nodes(g)
        assert sorted(nodes) == [0, 3]
        assert all(len(objs) == 2 for objs in nodes.values())


class TestTruthTable:
    def test_row_convention_first_support_variable_most_significant(self):
        # f = v1 over support (v1, v3): rows 10 and 11 are true
        table = expr.truth_table(expr.Var(0), [0, 2])
        assert table == 0b1100

    def test_cap(self):
        f = expr.Or(tuple(expr.Var(i) for i in range(4)))
        with pytest.raises(SupportTooLargeError):
            expr.truth_table(f, [0, 1, 2, 3], cap=3)

    @pytest.mark.parametrize("f", [
        "v1",
        expr.Not("v1"),
        expr.And((expr.Var(0), "v1")),  # a literal position of an And
        expr.And((expr.Not(7), expr.Var(0))),
        expr.Or((expr.Var(0), None)),
    ], ids=repr)
    def test_non_node_raises_type_error(self, f):
        with pytest.raises(TypeError):
            expr.syntactic_support(f)
        with pytest.raises(TypeError):
            expr.truth_table(f, [0])
        with pytest.raises(TypeError):
            expr.format_expression(f, VOCAB)
        with pytest.raises(TypeError):
            expr.restrict(f, Subspace.from_str("-"), {0: 0})


class TestTablesAgainstEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(f=expressions(N), order=st.permutations(range(N)), extra=st.integers(0, N))
    def test_truth_table_equals_row_by_row_evaluation(self, f, order, extra):
        # the support is unsorted and may hold variables f does not mention
        syntactic = expr.syntactic_support(f)
        support = [v for j, v in enumerate(order) if v in syntactic or j < extra]
        k = len(support)
        want = 0
        for row in range(1 << k):
            x = Subspace.from_items(
                N, [(v, (row >> (k - 1 - j)) & 1) for j, v in enumerate(support)]
            )
            want |= evaluate(f, x) << row
        assert expr.truth_table(f, support) == want

    @settings(max_examples=150, deadline=None)
    @given(f=expressions(N))
    def test_constant_and_essential_support_agree_with_exhaustive_evaluation(self, f):
        values = [evaluate(f, Subspace.from_state(N, x)) for x in range(1 << N)]
        assert constant_value(f) == (values[0] if len(set(values)) == 1 else None)
        essential = {
            v for v in range(N)
            if any(values[x] != values[x ^ (1 << (N - 1 - v))] for x in range(1 << N))
        }
        assert essential_support(f) == essential


def _random_expression(rng, n, depth=3):
    kind = rng.randrange(6 if depth > 0 else 2)
    if kind == 0:
        return expr.Var(rng.randrange(n))
    if kind == 1:
        return expr.Const(rng.randrange(2))
    if kind == 2:
        return expr.Not(_random_expression(rng, n, depth - 1))
    width = rng.randrange(2, 4)
    children = tuple(_random_expression(rng, n, depth - 1) for _ in range(width))
    return expr.And(children) if kind <= 4 else expr.Or(children)


def _random_subspace(rng, n):
    items = [(i, rng.randrange(2)) for i in range(n) if rng.random() < 0.5]
    return Subspace.from_items(n, items)
