"""Deterministic ASP and ILP encodings of the arc-set constraint system.

The mode names the objective direction over the arc indicators: "min"
(smallest non-empty arc sets, which induce the maximal trap spaces) or "max"
(largest arc sets, which induce the minimal trap spaces). Output is
byte-identical across runs for the same network.
"""

from __future__ import annotations

import re

from .errors import TrapSpacesError
from .primes import PrimeImplicantGraph


def _atom_names(variables: tuple[str, ...]) -> list[str]:
    """Map variable names to ASP-safe atoms: lowercase, non-alphanumerics to
    underscores, letter-initial, deduplicated by a positional suffix, which
    counts up past the atoms already taken."""
    atoms = []
    seen: set[str] = set()
    for name in variables:
        atom = re.sub(r"[^a-z0-9_]", "_", name.lower())
        if not atom or not atom[0].isalpha():
            atom = "v" + atom
        suffix = len(atoms) + 1
        base = atom
        while atom in seen:
            atom = f"{base}_{suffix}"
            suffix += 1
        seen.add(atom)
        atoms.append(atom)
    return atoms


def _check_mode(mode: str) -> None:
    if mode not in ("min", "max"):
        raise TrapSpacesError(f"unknown mode {mode!r}")


def emit_asp(g: PrimeImplicantGraph, mode: str) -> str:
    """Answer set program whose subset-minimal (mode="min") or subset-maximal
    (mode="max") answer sets over x/1 are the extremal arc sets."""
    _check_mode(mode)
    atoms = _atom_names(g.network.variables)
    target = "maximal trap spaces" if mode == "min" else "minimal trap spaces"
    lines = [
        "% stable and consistent arc sets of the prime implicant graph",
        f"% objective direction: {mode} (solutions induce the {target})",
        "% enumerate subset-"
        + ("minimal" if mode == "min" else "maximal")
        + " answer sets w.r.t. x/1 in the downstream solver,",
        "% e.g. clasp with --heu=domain --dom-mod="
        + ("6" if mode == "min" else "7"),
        "% variable name mapping:",
    ]
    for name, atom in zip(g.network.variables, atoms):
        lines.append(f"%   {atom} = {name}")
    # the facts of the literal (v, c), at index 2*v + c, up to the arc id
    head_text = [f"head({atom},{c},a" for atom in atoms for c in (0, 1)]
    tail_text = [f" tail({atom},{c},a" for atom in atoms for c in (0, 1)]
    for a, (h, t) in enumerate(zip(g.head_lit, g.tail_litmask), 1):
        end = f"{a})."
        facts = head_text[h] + end
        while t:
            low = t & -t
            facts += tail_text[low.bit_length() - 1] + end
            t ^= low
        lines.append(facts)
    lines.append("{x(ID) : head(v,c,ID)}.")
    lines.append(":- x(ID1), tail(v,c,ID1), not x(ID2): head(v,c,ID2).")
    lines.append(":- x(ID1), x(ID2), head(v,1,ID1), head(v,0,ID2).")
    if mode == "min":
        lines.append(":- {x(_)} 0.")
    return "\n".join(lines) + "\n"


def emit_ilp(g: PrimeImplicantGraph, mode: str) -> str:
    """LP-format 0-1 program; one cardinality-optimal arc set per solve.

    The consumer must iterate no-good cuts to enumerate all extremal sets:
    after each solution S, add sum of x over the complement of S >= 1 (max
    mode) or sum of x over S <= |S|-1 (min mode) and re-solve until
    infeasible.
    """
    _check_mode(mode)
    atoms = _atom_names(g.network.variables)
    target = "maximal trap spaces" if mode == "min" else "minimal trap spaces"
    ids = [str(a) for a in range(1, g.m + 1)]
    x_names = ["x_a" + a for a in ids]
    lines = [
        "\\ stable and consistent arc sets of the prime implicant graph",
        f"\\ objective direction: {mode} (solutions induce the {target})",
        "\\ enumerate by iteratively adding no-good cuts: after a solution S,",
        "\\ max mode: sum of x_a over arcs outside S >= 1 (forbids subsets),",
        "\\ min mode: sum of x_a over S <= |S|-1 (forbids supersets).",
        "Maximize" if mode == "max" else "Minimize",
        " obj: " + " + ".join(x_names),
        "Subject To",
    ]
    for v, atom in enumerate(atoms):
        for c in (0, 1):
            providers = g.ids(g.heads_mask[2 * v + c])
            y = f"y_{atom}_{c}"
            if providers:
                # y <= sum of inducing arcs
                terms = " - ".join([x_names[a - 1] for a in providers])
                lines.append(f" ilp1_{atom}_{c}: {y} - {terms} <= 0")
                row = f" ilp1_{atom}_{c}_a"
                for a in providers:
                    lines.append(f"{row}{a}: x_a{a} - {y} <= 0")
            else:
                lines.append(f" ilp1_{atom}_{c}: {y} <= 0")
    # the ilp2 row of the literal (v, c), at index 2*v + c, is cut at the
    # two places that hold the arc id
    ilp2_text = [(f"_{atom}: x_a", f" - y_{atom}_{c} <= 0") for atom in atoms for c in (0, 1)]
    for a, t in zip(ids, g.tail_litmask):
        while t:
            low = t & -t
            middle, end = ilp2_text[low.bit_length() - 1]
            lines.append(f" ilp2_a{a}{middle}{a}{end}")
            t ^= low
    for atom in atoms:
        lines.append(f" ilp3_{atom}: y_{atom}_0 + y_{atom}_1 <= 1")
    if mode == "min":
        lines.append(" nonempty: " + " + ".join(x_names) + " >= 1")
    lines.append("Binary")
    names = x_names + [f"y_{atom}_{c}" for atom in atoms for c in (0, 1)]
    lines.append(" " + " ".join(names))
    lines.append("End")
    return "\n".join(lines) + "\n"
