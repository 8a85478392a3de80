"""Reproducible random N-K Boolean network generation.

Per variable, in this fixed order: sample an in-degree from Poisson(k)
clamped to [1, min(degree_cap, n)], pick that many distinct regulators
uniformly, then fill a random truth table with independent fair bits. The
stream comes from a single Mersenne Twister instance seeded once, and all
sampling uses explicit algorithms on top of random()/getrandbits() so
networks are reproducible across platforms for a given seed.

Each function is the disjunctive normal form of its table, built like a
parsed expression: one ``Var`` and one ``Not`` per regulator, shared by all
of its terms, and the shared ``expr.FALSE``/``expr.TRUE`` for a constant.
"""

from __future__ import annotations

import math
import random
from itertools import compress, product

from . import expr as _expr
from ._value import Value
from .space import BooleanNetwork

DEFAULT_MEAN_DEGREE = 3.0
DEFAULT_DEGREE_CAP = 12


class GeneratorConfig(Value):
    __slots__ = _fields = ("n", "k", "seed", "degree_cap")
    n: int
    k: float
    seed: int
    degree_cap: int

    def __init__(self, n: int, k: float = DEFAULT_MEAN_DEGREE, seed: int = 0,
                 degree_cap: int = DEFAULT_DEGREE_CAP):
        if n < 1:
            raise ValueError("n must be at least 1")
        if not math.isfinite(k) or k < 0:
            raise ValueError(f"k must be finite and non-negative, got {k}")
        if not 1 <= degree_cap:
            raise ValueError("degree cap must be at least 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "degree_cap", degree_cap)


def _poisson(rng: random.Random, mean: float) -> int:
    # Knuth's multiplication method; fine for small means
    limit = math.exp(-mean)
    count = 0
    prod = rng.random()
    while prod > limit:
        count += 1
        prod *= rng.random()
    return count


def _sample_distinct(rng: random.Random, population: int, count: int) -> list[int]:
    # partial Fisher-Yates over [0, population), explicit for reproducibility
    pool = list(range(population))
    for j in range(count):
        swap = j + rng.randrange(population - j)
        pool[j], pool[swap] = pool[swap], pool[j]
    return sorted(pool[:count])


def _table_to_expression(regulators: list[int], table: int) -> _expr.Expression:
    """Disjunctive normal form over the true rows; Const for constant tables.

    Row bit j of a row index holds the value of regulators[j], counting the
    first regulator as most significant (the truth_table convention). Each
    regulator's ``Var`` and ``Not`` are built once and shared by every term.
    """
    rows = 1 << len(regulators)
    if table == 0:
        return _expr.FALSE
    if table == (1 << rows) - 1:
        return _expr.TRUE
    literals = [(_expr.Not(var), var) for var in map(_expr.Var, regulators)]
    # product() yields the rows in ascending order, first regulator varying slowest
    terms = compress(product(*literals), ((table >> row) & 1 for row in range(rows)))
    return _expr._join(_expr.Or, [_expr._join(_expr.And, term) for term in terms])


def generate(cfg: GeneratorConfig) -> BooleanNetwork:
    """Generate a random network; identical configs give identical networks."""
    rng = random.Random(cfg.seed)
    max_degree = min(cfg.degree_cap, cfg.n)
    names = tuple(f"v{i + 1}" for i in range(cfg.n))
    functions = []
    for _ in range(cfg.n):
        degree = _poisson(rng, cfg.k)
        degree = max(1, min(degree, max_degree))
        regulators = _sample_distinct(rng, cfg.n, degree)
        table = 0
        for row in range(1 << degree):
            if rng.getrandbits(1):
                table |= 1 << row
        functions.append(_table_to_expression(regulators, table))
    return BooleanNetwork(names, tuple(functions))
