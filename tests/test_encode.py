import hashlib
import itertools

import pytest

from trapspaces import build_graph, parse_network, write_network
from trapspaces.dynamics import brute_force_trap_spaces, select_trap_spaces
from trapspaces.encode import _atom_names, emit_asp, emit_ilp
from trapspaces.errors import TrapSpacesError
from trapspaces.space import Subspace

from conftest import corpus, dense, fixture_path


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

    def test_suffix_skips_atoms_already_taken(self):
        # X lowers to x, and its first suffix x_3 is the atom of x_3
        assert _atom_names(("x_3", "x", "X")) == ["x_3", "x", "x_4"]
        assert _atom_names(("x_4", "x_5", "x", "X")) == ["x_4", "x_5", "x", "x_6"]
        net = parse_network("targets, factors\nx_3, x_3\nx, x\nX, X\n")
        g = build_graph(net)
        for mode in ("min", "max"):
            lines = emit_ilp(g, mode).splitlines()
            rows = [ln.split(":")[0] for ln in lines if ln.startswith(" ") and ":" in ln]
            assert len(rows) == len(set(rows))
            binaries = lines[lines.index("Binary") + 1].split()
            assert len(binaries) == len(set(binaries))
            mapping = [ln for ln in emit_asp(g, mode).splitlines() if ln.startswith("%   ")]
            assert mapping == ["%   x_3 = x_3", "%   x = x", "%   x_4 = X"]

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
# eight dense-export networks, recorded when the encoders read one record
# per arc, before they read the bitmask arc table
GOLDEN_ENCODING_SHA256 = "6ea0e99d1cefe4e416b3238898f28d1591e33073f08609bc61cec0966e3e2c0a"


def _encoding_digest(nets):
    digest = hashlib.sha256()
    for net in nets:
        g = build_graph(net)
        for emit in (emit_asp, emit_ilp):
            for mode in ("min", "max"):
                digest.update(emit(g, mode).encode())
    return digest.hexdigest()


def test_golden_encoding_hash():
    nets = [*corpus(200), *dense()]
    assert _encoding_digest(nets) == GOLDEN_ENCODING_SHA256
    # the path the benchmark takes: network text, parsed with shared
    # literal nodes
    parsed = [parse_network(write_network(net)) for net in nets]
    assert _encoding_digest(parsed) == GOLDEN_ENCODING_SHA256


def _read_lp(text):
    """The sense, objective, rows and binaries of the LP subset that
    ``emit_ilp`` writes. Rows are (coefficients, rhs) in "<=" form, so a
    ">=" row is negated. The reader rejects what lies outside the subset:
    a coefficient other than +1 or -1, a variable that is not binary, or a
    missing section."""
    lines = [line for line in text.splitlines() if not line.startswith("\\")]
    assert lines[0] in ("Maximize", "Minimize") and lines[2] == "Subject To"
    assert lines[-3] == "Binary" and lines[-1] == "End"
    binaries = lines[-2].split()
    assert len(set(binaries)) == len(binaries)

    def terms(tokens):
        coefs = {}
        sign = 1
        for token in tokens:
            if token in ("+", "-"):
                sign = 1 if token == "+" else -1
            else:
                assert token in binaries and token not in coefs
                coefs[token] = sign
                sign = 1
        return coefs

    name, _, objective = lines[1].partition(": ")
    assert name == " obj"
    rows = []
    for line in lines[3:-3]:
        _, _, body = line.partition(": ")
        *lhs, op, rhs = body.split()
        assert op in ("<=", ">=")
        coefs = terms(lhs)
        if op == ">=":
            rows.append(({x: -c for x, c in coefs.items()}, -int(rhs)))
        else:
            rows.append((coefs, int(rhs)))
    return lines[0], terms(objective.split()), rows, binaries


def _optimum(sense, objective, rows, binaries):
    """An optimal 0-1 assignment, or None if the rows admit none.

    A depth-first search over the variables, those in the most rows first.
    It drops a branch once some row's smallest reachable left-hand side
    exceeds its bound, or once the objective can no longer beat the best
    assignment found."""
    count = {x: 0 for x in binaries}
    for coefs, _ in rows:
        for x in coefs:
            count[x] += 1
    order = sorted(binaries, key=lambda x: -count[x])
    sign = 1 if sense == "Maximize" else -1
    gain = [sign * objective.get(x, 0) for x in order]
    position = {x: i for i, x in enumerate(order)}
    occurs = [[] for _ in order]  # (row, coefficient) per variable
    low = []  # per row: its smallest reachable left-hand side
    for r, (coefs, _) in enumerate(rows):
        for x, c in coefs.items():
            occurs[position[x]].append((r, c))
        low.append(sum(c for c in coefs.values() if c < 0))
    bound = [rhs for _, rhs in rows]
    reach = [0] * (len(order) + 1)  # the most the variables from i on can add
    for i in range(len(order) - 1, -1, -1):
        reach[i] = reach[i + 1] + max(gain[i], 0)
    values = [0] * len(order)
    best = [None, None]  # score, assignment

    def search(i, score):
        if best[0] is not None and score + reach[i] <= best[0]:
            return
        if i == len(order):
            best[:] = [score, dict(zip(order, values))]
            return
        for value in ((1, 0) if gain[i] > 0 else (0, 1)):
            # setting 1 raises low by c > 0; setting 0 raises it by -c for c < 0
            moved = [(r, c if value else -c) for r, c in occurs[i] if (c > 0) == (value == 1)]
            for r, d in moved:
                low[r] += d
            if all(low[r] <= bound[r] for r, _ in moved):
                values[i] = value
                search(i + 1, score + gain[i] * value)
            for r, d in moved:
                low[r] -= d

    search(0, 0)
    return best[1]


def _ilp_spaces(g, mode):
    """The trap spaces that the protocol in ``emit_ilp``'s header yields:
    optimise, read the space off the y variables, add the no-good cut and
    re-solve until infeasible."""
    sense, objective, rows, binaries = _read_lp(emit_ilp(g, mode))
    x_vars = [x for x in binaries if x.startswith("x_")]
    atoms = _atom_names(g.network.variables)
    spaces = []
    while (solution := _optimum(sense, objective, rows, binaries)) is not None:
        chosen = [x for x in x_vars if solution[x]]
        spaces.append(Subspace.from_items(g.n, [
            (v, c) for v, atom in enumerate(atoms) for c in (0, 1) if solution[f"y_{atom}_{c}"]
        ]))
        if mode == "max":  # sum of x over the arcs outside S >= 1
            rows.append(({x: -1 for x in x_vars if not solution[x]}, -1))
        else:  # sum of x over S <= |S| - 1
            rows.append(({x: 1 for x in chosen}, len(chosen) - 1))
    return spaces


# a corpus(200) network (index 28) on which the min-mode protocol yields a
# space that is not maximal: the arcs v3=0 -> v2=0 and v2=0, v3=0 -> v3=0
# form a subset-minimal stable arc set whose space -00- lies inside -0--
MIN_MODE_COUNTEREXAMPLE = """\
targets, factors
v1, 0
v2, v1 & v2 & v3
v3, !v1 & !v2 & v3 & v4 | !v1 & v2 & !v3 & !v4 | !v1 & v2 & v3 & !v4 | !v1 & v2 & v3 & v4 \
| v1 & !v2 & v3 & !v4 | v1 & !v2 & v3 & v4 | v1 & v2 & !v3 & !v4 | v1 & v2 & !v3 & v4 \
| v1 & v2 & v3 & v4
v4, v2 & !v3 | v2 & v3
"""


class TestIlpSemantics:
    """Solve the ILP text the way its header tells a consumer to, with a
    small exact 0-1 search, and compare the spaces with the 3^n oracle."""

    @pytest.fixture(scope="class")
    def few_arcs(self):
        graphs = [build_graph(net) for net in corpus(200)]
        return [g for g in graphs if g.m <= 24]

    def test_max_mode_gives_the_minimal_trap_spaces(self, few_arcs):
        assert len(few_arcs) > 20
        for g in few_arcs:
            spaces = _ilp_spaces(g, "max")
            assert len(set(spaces)) == len(spaces)
            assert set(spaces) == set(brute_force_trap_spaces(g.network, "min"))

    def test_min_mode_gives_every_maximal_trap_space(self, few_arcs):
        for g in few_arcs:
            oracle = brute_force_trap_spaces(g.network, "all")
            spaces = set(_ilp_spaces(g, "min"))
            assert spaces <= set(oracle)
            assert set(select_trap_spaces(oracle, "max")) <= spaces

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the min-mode cut forbids supersets of an arc set, not of "
                       "its space, so a subset-minimal arc set whose space is not "
                       "maximal is reported too")
    def test_min_mode_gives_only_maximal_trap_spaces(self):
        net = parse_network(MIN_MODE_COUNTEREXAMPLE)
        spaces = set(_ilp_spaces(build_graph(net), "min"))
        assert spaces == set(brute_force_trap_spaces(net, "max"))


def _split(text, sep=","):
    """``text`` cut at each ``sep`` outside parentheses and braces."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += ch in "({"
        depth -= ch in ")}"
        if ch == sep and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


_FRESH = itertools.count()


def _atom(text):
    """``pred(t1,...,tk)`` as (pred, (t1, ..., tk)), each anonymous ``_``
    renamed to a variable of its own."""
    pred, _, args = text.strip().partition("(")
    assert args.endswith(")"), text
    terms = (t.strip() for t in args[:-1].split(","))
    return pred.strip(), tuple(f"_{next(_FRESH)}" if t == "_" else t for t in terms)


def _bindings(atoms, facts, binding):
    """Every extension of ``binding`` under which each of ``atoms`` is one of
    ``facts``. As in clingo, a term that starts with an upper-case letter or
    ``_`` is a variable and any other a constant."""
    if not atoms:
        yield binding
        return
    (pred, args), rest = atoms[0], atoms[1:]
    for fact in facts.get(pred, ()):
        b = dict(binding)
        for term, value in zip(args, fact):
            if term[0].isupper() or term[0] == "_":
                if b.setdefault(term, value) != value:
                    break
            elif term != value:
                break
        else:
            if len(args) == len(fact):
                yield from _bindings(rest, facts, b)


def _ground(args, binding):
    return tuple(binding.get(t, t) for t in args)


def _ground_asp(text):
    """The program ``emit_asp`` writes, grounded: its facts by predicate, the
    x/1 atoms its choice rule can make true, and each constraint as a pair
    (pos, neg) of sets of those atoms, violated when every atom of pos holds
    and none of neg. The rule shapes read are the ones it writes: facts, one
    choice rule ``{x(T) : cond}``, and constraints over x and the facts with
    positive literals, a final negated conditional literal and a
    ``{x(_)} 0`` count."""
    text = "\n".join(line.partition("%")[0] for line in text.splitlines())
    statements = [s.strip() for s in text.split(".") if s.strip()]
    facts, choice, constraints = {}, None, []
    for s in statements:
        if s.startswith(":-"):
            constraints.append(_split(s[2:]))
        elif s.startswith("{"):
            assert choice is None and s.endswith("}"), s
            head, cond = _split(s[1:-1], ":")
            choice = _atom(head), [_atom(c) for c in _split(cond)]
        else:
            pred, args = _atom(s)
            facts.setdefault(pred, []).append(args)
    (x, args), cond = choice
    atoms = list(dict.fromkeys(_ground(args, b) for b in _bindings(cond, facts, {})))
    facts[x] = atoms
    ground = []
    for body in constraints:
        plain, absent = [], []  # absent: each x atom needed false, with its condition
        for i, e in enumerate(body):
            if e.startswith("{"):
                # at most 0 of the element's atoms hold: each one is false
                element, _, bound = e[1:].partition("}")
                assert int(bound) == 0, e
                element = _atom(element)
                absent.append((element, [element]))
            elif e.startswith("not "):
                # a conditional literal, whose condition runs to the end
                literal, cond = _split(",".join(body[i:]), ":")
                absent.append((_atom(literal[4:]), [_atom(c) for c in _split(cond)]))
                break
            else:
                plain.append(_atom(e))
        for b in _bindings(plain, facts, {}):
            pos = {_ground(args, b) for pred, args in plain if pred == x}
            neg = {_ground(args, b2) for (pred, args), cond in absent if pred == x
                   for b2 in _bindings(cond, facts, b)}
            ground.append((pos, neg & set(atoms)))
    return facts, atoms, ground


def _answer_sets(atoms, constraints):
    """Every subset of ``atoms`` that violates no constraint, as a bitmask
    over their positions: a depth-first search over the atoms in order,
    which tests each constraint once its last atom is decided."""
    position = {a: i for i, a in enumerate(atoms)}
    due = [[] for _ in range(len(atoms) + 1)]
    for pos, neg in constraints:
        p = sum(1 << position[a] for a in pos)
        n = sum(1 << position[a] for a in neg)
        due[(p | n).bit_length()].append((p, n))
    found = []

    def search(i, chosen):
        if any(chosen & p == p and not chosen & n for p, n in due[i]):
            return
        if i == len(atoms):
            found.append(chosen)
            return
        search(i + 1, chosen | 1 << i)
        search(i + 1, chosen)

    search(0, 0)
    return found


def _asp_spaces(g, text, mode):
    """The spaces induced by the subset-maximal (mode "max") or minimal
    (mode "min") answer sets of the program ``text`` over x/1."""
    facts, atoms, constraints = _ground_asp(text)
    sets = _answer_sets(atoms, constraints)
    if mode == "max":
        extremal = [s for s in sets if not any(t != s and t & s == s for t in sets)]
    else:
        extremal = [s for s in sets if not any(t != s and t & s == t for t in sets)]
    index = {atom: v for v, atom in enumerate(_atom_names(g.network.variables))}
    heads = {arc: (index[atom], int(c)) for atom, c, arc in facts.get("head", ())}
    return [Subspace.from_items(g.n, [heads[atoms[i][0]] for i in range(len(atoms))
                                      if s >> i & 1]) for s in extremal]


# the three rule lines with the literal's variables written V and C, so
# that clingo reads them as variables, not as the constants v and c
CORRECTED_RULES = {
    "{x(ID) : head(v,c,ID)}.": "{x(ID) : head(V,C,ID)}.",
    ":- x(ID1), tail(v,c,ID1), not x(ID2): head(v,c,ID2).":
        ":- x(ID1), tail(V,C,ID1), not x(ID2): head(V,C,ID2).",
    ":- x(ID1), x(ID2), head(v,1,ID1), head(v,0,ID2).":
        ":- x(ID1), x(ID2), head(V,1,ID1), head(V,0,ID2).",
}


def _corrected_asp(g, mode):
    text = emit_asp(g, mode)
    for rule, fixed in CORRECTED_RULES.items():
        assert rule in text
        text = text.replace(rule, fixed)
    return text


def _check_max_mode(g, text):
    spaces = _asp_spaces(g, text, "max")
    assert len(set(spaces)) == len(spaces)
    assert set(spaces) == set(brute_force_trap_spaces(g.network, "min"))


def _check_min_mode(g, text):
    oracle = brute_force_trap_spaces(g.network, "all")
    spaces = set(_asp_spaces(g, text, "min"))
    assert spaces <= set(oracle)
    assert set(select_trap_spaces(oracle, "max")) <= spaces


class TestAspSemantics:
    """Ground the ASP text as clingo reads it, list its subset-extremal
    answer sets over x/1 with a small exact search, and compare the spaces
    they induce with the 3^n oracle."""

    @pytest.fixture(scope="class")
    def few_arcs(self):
        graphs = [build_graph(net) for net in corpus(200)]
        return [g for g in graphs if g.m <= 24]

    def test_grounding_of_the_example(self, example_graph):
        _, atoms, constraints = _ground_asp(_corrected_asp(example_graph, "min"))
        assert atoms == [(f"a{a}",) for a in range(1, 12)]
        # a1's tail v1=1 is provided by a1 and a2; a10 and a11 conflict on v4
        assert ({("a1",)}, {("a1",), ("a2",)}) in constraints
        assert ({("a10",), ("a11",)}, set()) in constraints
        # the count constraint: some x atom holds
        assert (set(), set(atoms)) in constraints

    def test_corrected_max_mode_gives_the_minimal_trap_spaces(self, few_arcs):
        assert len(few_arcs) > 20
        for g in few_arcs:
            _check_max_mode(g, _corrected_asp(g, "max"))

    def test_corrected_min_mode_gives_every_maximal_trap_space(self, few_arcs):
        for g in few_arcs:
            _check_min_mode(g, _corrected_asp(g, "min"))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the rules write v and c in lower case, constants to "
                       "clingo, so the choice rule grounds to nothing and the only "
                       "answer set is empty")
    def test_max_mode_gives_the_minimal_trap_spaces(self, few_arcs):
        for g in few_arcs:
            _check_max_mode(g, emit_asp(g, "max"))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the rules write v and c in lower case, constants to "
                       "clingo, so the choice rule grounds to nothing and the "
                       "non-empty constraint leaves no answer set")
    def test_min_mode_gives_every_maximal_trap_space(self, few_arcs):
        for g in few_arcs:
            _check_min_mode(g, emit_asp(g, "min"))
