"""Boolean expression ASTs: parsing, formatting, bit-parallel truth tables,
restriction to a subspace (which renumbers the free variables in the same
walk) and syntactic support.

Concrete syntax: identifiers ``[A-Za-z_][A-Za-z0-9_]*``, negation ``!``,
conjunction ``&``, disjunction ``|``, constants ``0``/``1`` and parentheses.
Precedence is ``!`` > ``&`` > ``|``; both binary operators are n-ary in the AST.
The parser has two routes to one tree: a sum of products of literals
without parentheses, the form ``randgen`` writes, is split on ``|`` and
``&`` directly; all other text, and every text with an error, goes to a
plain operator-precedence parser, the only one that reports errors. It
reports the first character outside the syntax before any other fault.
All nodes are immutable, so one node may be shared by many trees. The
parser builds each literal once per file (``bnet.parse_network``) or once
per call (``parse_expression``), on either route, the random generator
(``randgen``) once per function and ``restrict`` once per call: within
that scope every ``v`` is one ``Var`` node and every ``!v`` one ``Not``
node, and the constants are the two shared nodes ``FALSE`` and ``TRUE``.
All three build their ``And`` and ``Or`` nodes with ``_join``. The walkers
(``format_expression``, ``syntactic_support`` and the truth-table pass)
read the ``Var`` and ``Not(Var)`` children of an ``And`` or ``Or``
inline, so no literal costs them a call or a stack entry.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from typing import Optional, Sequence

from ._value import Value
from .errors import ExpressionSyntaxError, SupportTooLargeError, UnknownVariableError

DEFAULT_SUPPORT_CAP = 16


class Expression(Value):
    """Base class for AST nodes."""

    __slots__ = ()


class Const(Expression):
    __slots__ = _fields = ("value",)
    value: int

    def __init__(self, value: int):
        if value not in (0, 1):
            raise ValueError("constant must be 0 or 1")
        object.__setattr__(self, "value", value)


FALSE = Const(0)
TRUE = Const(1)
_CONSTANTS = (FALSE, TRUE)


class Var(Expression):
    __slots__ = _fields = ("index",)
    index: int


class Not(Expression):
    __slots__ = _fields = ("child",)
    child: Expression


class And(Expression):
    __slots__ = _fields = ("children",)
    children: tuple

    def __init__(self, children: tuple):
        if len(children) < 2:
            raise ValueError("And requires at least two children")
        object.__setattr__(self, "children", children)


class Or(Expression):
    __slots__ = _fields = ("children",)
    children: tuple

    def __init__(self, children: tuple):
        if len(children) < 2:
            raise ValueError("Or requires at least two children")
        object.__setattr__(self, "children", children)


_IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"  # the one spelling of a variable name
_IDENTIFIER_RE = re.compile(_IDENTIFIER)
_LITERAL_RE = re.compile("!?" + _IDENTIFIER)  # an identifier or its negation
_TOKEN_RE = re.compile(_IDENTIFIER + r"|\S")  # an identifier or one character

# deepest nesting of open '(' and pending '!' accepted; it keeps the AST
# walkers, which recurse once per level, far from the recursion limit
MAX_NESTING = 200


def _error(text: str, tokens: list, i: int, message: Optional[str]) -> Exception:
    """The error at token ``i`` (message None: an unknown variable), or an
    unexpected character at or after it, which is reported first."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)]
    for j in range(i, len(tokens) - 1):  # every token but the end marker
        # a token that is no identifier is one character
        if not (_IDENTIFIER_RE.match(tokens[j]) or tokens[j] in "01!&|()"):
            return ExpressionSyntaxError(f"unexpected character {tokens[j]!r}", starts[j])
    if message is None:
        return UnknownVariableError(tokens[i])
    return ExpressionSyntaxError(message, starts[i])


def _join(kind: type, items: list) -> Expression:
    return items[0] if len(items) == 1 else kind(tuple(items))


def parse_expression(text: str, vocabulary: Sequence[str] | Mapping[str, int]) -> Expression:
    """Parse ``text`` into an AST; identifiers resolve to vocabulary indices.
    A caller parsing many expressions over one vocabulary passes the
    name-to-index mapping, built once.

    Two routes give the same tree. A sum of products without parentheses,
    whose ``|``-separated terms split on ``&`` into literals (``0``, ``1``,
    ``v`` or ``!v`` with ``v`` in the vocabulary, each with any whitespace
    around it), is split directly (``_sum_of_products``). Every other text,
    and every text that misses the first route anywhere, goes to the
    general parser (``_parse_general``), so that parser alone reports
    errors and their positions. Both routes share the literals this call
    builds: every ``v`` in the text is one ``Var`` node and every ``!v``
    one ``Not`` node over it (``bnet.parse_network`` shares them per file).
    """
    index_of = (vocabulary if isinstance(vocabulary, Mapping)
                else {name: i for i, name in enumerate(vocabulary)})
    return _parse(text, index_of, {"0": FALSE, "1": TRUE})


def _parse(text: str, index_of: Mapping[str, int], nodes: dict) -> Expression:
    """``parse_expression``'s routing; both routes share the literal table ``nodes``."""
    if "(" not in text:
        f = _sum_of_products(text, index_of, nodes)
        if f is not None:
            return f
    return _parse_general(text, index_of, nodes)


def _sum_of_products(text: str, index_of: Mapping[str, int], nodes: dict) -> Optional[Expression]:
    """The AST of a parenthesis-free sum of products of literals, built
    with ``str.split`` and ``str.strip``; None for any other text. The
    literal table ``nodes`` maps each literal text seen (``0``, ``1``,
    ``v``, ``!v``) to its node, so a literal is checked against the syntax
    and the vocabulary and built on its first look-up only."""
    terms = []
    for term in text.split("|"):
        factors = []
        for piece in term.split("&"):
            piece = piece.strip()  # str.strip drops exactly what the tokenizer skips
            node = nodes.get(piece)
            if node is None:
                if not _LITERAL_RE.fullmatch(piece):
                    return None
                negated = piece[0] == "!"
                name = piece[1:] if negated else piece
                node = nodes.get(name)
                if node is None:
                    if name not in index_of:
                        return None
                    node = nodes[name] = Var(index_of[name])
                if negated:
                    node = nodes[piece] = Not(node)
            factors.append(node)
        terms.append(_join(And, factors))
    return _join(Or, terms)


def _parse_general(text: str, index_of: Mapping[str, int], nodes: dict) -> Expression:
    """Parse any text, or raise the error at its first fault.

    One ``findall`` splits the text into identifiers and single
    characters, and one loop reads them by operator precedence with an
    explicit stack: an open parenthesis pushes the enclosing (or_terms,
    and_factors, pending_nots) frame and its closing one pops it. Token
    positions are computed only for an error. Operands read and fill the
    literal table ``nodes`` of ``_sum_of_products``.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # the end
    stack: list[tuple[list, list, int]] = []
    terms, factors = [], []
    nots = depth = 0
    i = -1  # the index of the token read last
    while True:
        # an operand, after the '!' and '(' that open it
        i += 1
        token = tokens[i]
        if token == "!" or token == "(":
            if depth == MAX_NESTING:
                raise _error(text, tokens, i, f"nesting deeper than {MAX_NESTING}")
            depth += 1
            if token == "!":
                nots += 1
            else:
                stack.append((terms, factors, nots))
                terms, factors, nots = [], [], 0
            continue
        node = nodes.get(token)
        if node is None:
            if not _IDENTIFIER_RE.match(token):
                raise _error(text, tokens, i, f"unexpected token {token!r}")
            if token not in index_of:
                raise _error(text, tokens, i, None)
            node = nodes[token] = Var(index_of[token])
        if nots:
            depth -= nots
            negation = nodes.get("!" + token)
            if negation is None:
                negation = nodes["!" + token] = Not(node)
            node = negation
            for _ in range(nots - 1):  # the outer negations are not shared
                node = Not(node)
            nots = 0
        factors.append(node)
        # the operators after it
        i += 1
        token = tokens[i]
        while token == ")" and stack:
            terms.append(_join(And, factors))
            node = _join(Or, terms)
            terms, factors, pending = stack.pop()
            depth -= 1 + pending
            for _ in range(pending):
                node = Not(node)
            factors.append(node)
            i += 1
            token = tokens[i]
        if token == "|":
            terms.append(_join(And, factors))
            factors = []
        elif token != "&":
            if token or stack:
                raise _error(text, tokens, i,
                             f"expected ')', found {token!r}" if stack
                             else f"unexpected token {token!r}")
            terms.append(_join(And, factors))
            return _join(Or, terms)


def format_expression(f: Expression, vocabulary: Sequence[str]) -> str:
    """Render ``f`` in the concrete syntax; round-trips structurally.

    An ``And`` or ``Or`` writes its ``Var`` and ``Not(Var)`` children
    inline; only its compound children take a call of their own."""
    kind = type(f)
    if kind is And or kind is Or:
        parts = []
        for child in f.children:
            child_kind = type(child)
            if child_kind is Var:
                parts.append(vocabulary[child.index])
            elif child_kind is Not and type(child.child) is Var:
                parts.append("!" + vocabulary[child.child.index])
            elif child_kind is Or or (child_kind is And and kind is And):
                parts.append(f"({format_expression(child, vocabulary)})")
            else:
                parts.append(format_expression(child, vocabulary))
        return (" & " if kind is And else " | ").join(parts)
    if kind is Var:
        return vocabulary[f.index]
    if kind is Not:
        inner = format_expression(f.child, vocabulary)
        child_kind = type(f.child)
        return f"!({inner})" if child_kind is And or child_kind is Or else "!" + inner
    if kind is Const:
        return str(f.value)
    raise TypeError(f"not an expression node: {f!r}")


def restrict(f: Expression, p, index_map: Mapping[int, int]) -> Expression:
    """Substitute the fixed values of subspace ``p``, fold constants locally
    and renumber every other variable through ``index_map``, in one walk.

    The result contains no fixed variable of ``p`` and agrees with ``f`` on
    every state of ``p``, each free variable ``v`` read as ``index_map[v]``.
    No equivalence reasoning beyond constant folding. Like the parser, it
    builds one ``Var`` and one ``Not`` over it per new index and shares them.
    """
    variables: dict[int, Expression] = {}  # index in f -> its Var or constant
    negations: dict[int, Not] = {}  # new index -> the Not over its Var

    def walk(g: Expression) -> Expression:
        kind = type(g)
        if kind is Var:
            node = variables.get(g.index)
            if node is None:
                node = variables[g.index] = (_CONSTANTS[p.value(g.index)]
                                             if p.is_fixed(g.index)
                                             else Var(index_map[g.index]))
            return node
        if kind is Not:
            child = walk(g.child)
            child_kind = type(child)
            if child_kind is Const:
                return _CONSTANTS[1 - child.value]
            if child_kind is not Var:
                return Not(child)
            # a child that folded down to a variable shares its negation too
            node = negations.get(child.index)
            if node is None:
                node = negations[child.index] = Not(child)
            return node
        if kind is And or kind is Or:
            absorbing = 0 if kind is And else 1
            kept = []
            for child in g.children:
                sub = walk(child)
                if type(sub) is Const:
                    if sub.value == absorbing:
                        return _CONSTANTS[absorbing]
                    continue
                kept.append(sub)
            if not kept:
                return _CONSTANTS[1 - absorbing]
            return _join(kind, kept)
        if kind is Const:
            return g
        raise TypeError(f"not an expression node: {g!r}")

    return walk(f)


def syntactic_support(f: Expression) -> set[int]:
    """Indices of all variables occurring in ``f``; the literal children of
    an ``And`` or ``Or`` are read inline, only compound ones are stacked."""
    out: set[int] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is And or kind is Or:
            for child in g.children:
                child_kind = type(child)
                if child_kind is Var:
                    out.add(child.index)
                elif child_kind is Not and type(child.child) is Var:
                    out.add(child.child.index)
                else:
                    stack.append(child)
        elif kind is Var:
            out.add(g.index)
        elif kind is Not:
            stack.append(g.child)
        elif kind is not Const:
            raise TypeError(f"not an expression node: {g!r}")
    return out


def _column(k: int, pos: int) -> int:
    """The 2^k-bit table of row bit ``pos``: bit r is set iff bit ``pos`` of r is."""
    width = 1 << pos
    column = ((1 << width) - 1) << width
    # double the repeating pattern until it spans all 2^k rows: the work
    # stays linear in 2^k even for the widest columns
    span = 2 * width
    while span < 1 << k:
        column |= column << span
        span *= 2
    return column


def _cube_steps(k: int) -> list[tuple[int, int, int]]:
    """The masks that turn a 2^k-bit table into a 3^k-bit table of cubes,
    one bit per cube, with one step per row bit, most significant first.

    Step j, for row bit k-1-j, splits each block of 2h bits (h = 2^(k-1-j)),
    at the start of a frame of 3w bits (w = 3^(k-1-j)), into its halves for
    0 and 1, and ``low`` selects the low half of every block. The caller
    puts the two halves and their AND at the frame's three w-bit digits, in
    its own order; the row bits end up as base-3 digits, the most
    significant row bit as the most significant digit."""
    steps = []
    starts = 1  # one bit per frame
    for j in range(k):
        w, h = 3 ** (k - 1 - j), 1 << (k - 1 - j)
        steps.append(((starts << h) - starts, h, w))
        starts |= starts << w | starts << 2 * w
    return steps


def _tabulate(f: Expression, columns: Sequence[int] | Mapping[int, int], full: int) -> int:
    """The table of ``f`` from the table (column) of each variable index.

    An ``And`` reads the columns of its literal children directly: it
    intersects its positive ones and subtracts the union of its negated
    ones, one complement per node."""
    kind = type(f)
    if kind is And:
        table = full
        negated = 0
        for child in f.children:
            child_kind = type(child)
            if child_kind is Var:
                table &= columns[child.index]
            elif child_kind is Not and type(child.child) is Var:
                negated |= columns[child.child.index]
            else:
                table &= _tabulate(child, columns, full)
        return table & ~negated
    if kind is Or:
        table = 0
        for child in f.children:
            table |= _tabulate(child, columns, full)
        return table
    if kind is Not:
        return _tabulate(f.child, columns, full) ^ full
    if kind is Var:
        return columns[f.index]
    if kind is Const:
        return full if f.value else 0
    raise TypeError(f"not an expression node: {f!r}")


def truth_table(f: Expression, support: Sequence[int], cap: int = DEFAULT_SUPPORT_CAP) -> int:
    """Tabulate ``f`` over ``support`` as a 2^k-bit integer (bit r = row r).

    Bit j of a row index, counting the first support variable as most
    significant, holds the value of ``support[j]``. Evaluation is
    bit-parallel: each variable stands for its whole column, so one walk of
    the AST yields every row.
    """
    k = len(support)
    if k > cap:
        raise SupportTooLargeError(k, cap)
    columns = {v: _column(k, k - 1 - j) for j, v in enumerate(support)}
    return _tabulate(f, columns, (1 << (1 << k)) - 1)
