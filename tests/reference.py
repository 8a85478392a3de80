"""Independent reference evaluators that the tests compare the package
against: an AST evaluator, the states of a subspace, the image of a state,
constancy and essential support of a function, and the trap-set test on an
explicit transition graph. The package decides these questions from one
truth table per function (``BooleanNetwork.tables``) and the oracle's
columns. ``image_int`` computes the image of a state itself, row by row
off those tables, not through the package's ``image_subspace``.
``embed_state`` maps a state of a reduced network back to its parent.
``implicant_litmasks`` decodes the prime cubes of a function one digit at
a time, against which the package's two-table decode is checked. Nothing
under ``src/`` calls the functions here. Two plain recursive AST walks, a
formatter and the variables a function mentions, check the package's
walkers, which read literal children inline.
"""

from trapspaces.errors import TrapSpacesError
from trapspaces.expr import And, Const, Not, Or, Var, _column, syntactic_support, truth_table
from trapspaces.primes import _prime_table
from trapspaces.space import Subspace


def evaluate(f, x) -> int:
    """Evaluate ``f`` at a state; ``x`` must fix every referenced variable."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Var):
        return x.value(f.index)
    if isinstance(f, Not):
        return 1 - evaluate(f.child, x)
    if isinstance(f, And):
        for child in f.children:
            if evaluate(child, x) == 0:
                return 0
        return 1
    if isinstance(f, Or):
        for child in f.children:
            if evaluate(child, x) == 1:
                return 1
        return 0
    raise TypeError(f"not an expression node: {f!r}")


def format_expression(f, vocabulary) -> str:
    """Render ``f`` in the concrete syntax; round-trips structurally."""
    if isinstance(f, Const):
        return str(f.value)
    if isinstance(f, Var):
        return vocabulary[f.index]
    if isinstance(f, Not):
        inner = format_expression(f.child, vocabulary)
        if isinstance(f.child, (And, Or)):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(f, And):
        parts = []
        for child in f.children:
            text = format_expression(child, vocabulary)
            if isinstance(child, (And, Or)):
                text = f"({text})"
            parts.append(text)
        return " & ".join(parts)
    if isinstance(f, Or):
        parts = []
        for child in f.children:
            text = format_expression(child, vocabulary)
            if isinstance(child, Or):
                text = f"({text})"
            parts.append(text)
        return " | ".join(parts)
    raise TypeError(f"not an expression node: {f!r}")


def mentioned_variables(f) -> set[int]:
    """The indices of the ``Var`` nodes of ``f``, one call per node."""
    if isinstance(f, Const):
        return set()
    if isinstance(f, Var):
        return {f.index}
    if isinstance(f, Not):
        return mentioned_variables(f.child)
    return set().union(*map(mentioned_variables, f.children))


def tabulate(f) -> tuple[tuple[int, ...], int]:
    """The sorted syntactic support of ``f`` and the truth table over it."""
    support = tuple(sorted(syntactic_support(f)))
    return support, truth_table(f, support)


def implicant_litmasks(support, table, target, c) -> list[int]:
    """The c-prime implicants of a function as literal masks, in ascending
    index order of ``_prime_table``, each index decoded digit by digit: k
    ``divmod`` steps per prime, least significant digit (the last support
    variable) first. An empty prime becomes the literal (target, c)."""
    k = len(support)
    if not c:
        table ^= (1 << (1 << k)) - 1
    digits = [(lit, lit << 1, 0) for lit in (1 << 2 * v for v in reversed(support))]
    bits = format(_prime_table(table, k, {}), "b")
    top = len(bits) - 1
    out = []
    pos = bits.rfind("1")
    while pos >= 0:
        q, lits = top - pos, 0
        for digit in digits:
            q, d = divmod(q, 3)
            lits |= digit[d]
        out.append(lits or 1 << (2 * target + c))
        pos = bits.rfind("1", 0, pos)
    return out


def constant_value(f):
    """Return c if ``f`` equals c on every assignment of its syntactic support.

    Decided semantically from the truth table, so algebraically hidden
    constants (e.g. ``v & !v``) are detected.
    """
    support, table = tabulate(f)
    if table == 0:
        return 0
    if table == (1 << (1 << len(support))) - 1:
        return 1
    return None


def essential_support(f) -> set[int]:
    """Variables whose value can change ``f``: some pair of states differing
    only in that variable yields different values."""
    support, table = tabulate(f)
    k = len(support)
    essential: set[int] = set()
    for j, v in enumerate(support):
        pos = k - 1 - j
        column = _column(k, pos)
        # compare the rows with the variable at 1 against those with it at 0
        if (table & column) >> (1 << pos) != table & ~column:
            essential.add(v)
    return essential


def state_int(p: Subspace) -> int:
    """The state integer of a subspace that fixes every variable."""
    if not p.is_state:
        raise TrapSpacesError("subspace has free variables, not a state")
    return p.vals


def contains_state(p: Subspace, x: int) -> bool:
    return (x & p.mask) == p.vals


def referenced_states(p: Subspace) -> list[int]:
    """All states matching ``p`` as integers, ascending: ``p.vals`` OR each
    subset of the free bits, walked upwards by ``sub = (sub - free) & free``."""
    free = ((1 << p.n) - 1) ^ p.mask
    states = [p.vals]
    sub = 0
    while sub != free:
        sub = (sub - free) & free
        states.append(p.vals | sub)
    return states


def image_int(net, x: int) -> int:
    """The image F(x) of the state ``x`` as an integer: one table row per
    function, read off its truth table."""
    n = net.n
    y = 0
    for i, (support, table) in enumerate(net.tables()):
        row = 0
        for v in support:
            row = (row << 1) | ((x >> (n - 1 - v)) & 1)
        if (table >> row) & 1:
            y |= 1 << (n - 1 - i)
    return y


def image_state(net, x: Subspace) -> Subspace:
    """The image F(x) of a state."""
    return Subspace.from_state(net.n, image_int(net, state_int(x)))


def embed_state(red, y: int) -> int:
    """The parent state that the state ``y`` of the reduced network
    ``red`` (an ``analysis.ReducedNetwork``) stands for."""
    x = red.fixing.vals
    rn = red.network.n
    for parent_i, reduced_i in red.index_map.items():
        if (y >> (rn - 1 - reduced_i)) & 1:
            x |= 1 << (red.parent.n - 1 - parent_i)
    return x


def is_trap_set(stg, states: set[int]) -> bool:
    """True iff no transition leaves the given non-empty state set."""
    if not states:
        raise TrapSpacesError("the empty set is not a trap set")
    return all(y in states for x in states for y in stg.successors(x))
