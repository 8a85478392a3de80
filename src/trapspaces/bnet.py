"""The network file format: a ``targets, factors`` header, then one
``<name>, <expression>`` line per variable. Variable order is line order.
Blank lines and ``#`` comment lines are ignored."""

from __future__ import annotations

import re

from . import expr as _expr
from .errors import ExpressionSyntaxError, NetworkFormatError, UnknownVariableError
from .space import BooleanNetwork

HEADER = "targets, factors"


def parse_network(text: str, support_cap: int = _expr.DEFAULT_SUPPORT_CAP) -> BooleanNetwork:
    """The network written in ``text``; ``support_cap`` becomes its
    ``BooleanNetwork.support_cap``."""
    lines = [(number, line) for number, raw in enumerate(text.splitlines(), 1)
             if (line := raw.strip()) and line[0] != "#"]
    if not lines:
        raise NetworkFormatError("empty network file")
    if re.sub(r"\s*,\s*", ", ", lines[0][1]).lower() != HEADER:
        raise NetworkFormatError(f"expected header {HEADER!r}, found {lines[0][1]!r}")
    pairs = []
    for _, line in lines[1:]:
        if "," not in line:
            raise NetworkFormatError(f"expected '<name>, <expression>': {line!r}")
        name, text_expr = line.split(",", 1)
        name = name.strip()
        if not _expr._IDENTIFIER_RE.fullmatch(name):
            raise NetworkFormatError(f"bad variable name {name!r}")
        pairs.append((name, text_expr.strip()))
    names = tuple(name for name, _ in pairs)
    index_of = {name: i for i, name in enumerate(names)}
    if len(index_of) != len(names):
        raise NetworkFormatError("duplicate variable names")
    functions = []
    nodes = {"0": _expr.FALSE, "1": _expr.TRUE}  # one literal table per file
    try:
        for _, text_expr in pairs:
            functions.append(_expr._parse(text_expr, index_of, nodes))
    except (ExpressionSyntaxError, UnknownVariableError) as exc:
        # the same error, naming where it is: the line and the variable
        at = len(functions)
        exc.args = (f"line {lines[at + 1][0]}, variable {pairs[at][0]!r}: {exc}",)
        raise
    return BooleanNetwork(names, tuple(functions), support_cap)


def load_network(path: str, support_cap: int = _expr.DEFAULT_SUPPORT_CAP) -> BooleanNetwork:
    # utf-8-sig drops a leading byte-order mark, as some editors write one
    with open(path, encoding="utf-8-sig") as handle:
        return parse_network(handle.read(), support_cap)


def write_network(net: BooleanNetwork) -> str:
    lines = [HEADER]
    for name, f in zip(net.variables, net.functions):
        lines.append(f"{name}, {_expr.format_expression(f, net.variables)}")
    return "\n".join(lines) + "\n"
