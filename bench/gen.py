"""Seeded input generators owned by the benchmark.

Both generators take the seed as an argument and return source text, so
a run can be reproduced from its seed alone.  Shapes and sizes come from
fixed strata and the seed draws the contents inside each stratum, so the
inputs change from seed to seed while each run's total work, and the
share of inputs past a size threshold, stay close to constant.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

# Atoms that translate to exactly one gate, so a term's gate count follows
# its recursion shape and not the luck of the draw.
ALGEBRA_ATOMS = ("not", "(ph pi / 4)", "(ph pi / 2)", "(rot pi / 4)", "(rot pi / 2)")

# How much work the recursive calls of a term share, in increasing order:
# no recursion; one recursive branch (a chain, nothing to merge); every
# branch recursive on one control qubit (calls merge at every level); two
# control qubits with two of their four selectors recursive.
ALGEBRA_STRATA = ("flat", "chain", "merge", "merge2")

FRONTEND_SHAPES = ("straight", "chain")
FRONTEND_QUBITS = 8
# Program sizes in statements, each jittered by up to FRONTEND_JITTER.
# Today's RecursionError thresholds (about 1600 statements for a chain
# of procedures, 1800 for one straight-line body) sit between two grid
# points, so the same share of programs fails for every seed.
FRONTEND_SIZES = (300, 600, 1200, 3000)
FRONTEND_JITTER = 0.01


@dataclass(frozen=True)
class Input:
    """One generated input.

    `statements` and `procedures` count the source as generated; they are 0
    for algebra terms, whose program exists only after translation.
    """

    name: str
    text: str
    kind: str
    statements: int
    procedures: int
    n: int


def inputs_hash(inputs: list[Input]) -> str:
    digest = hashlib.sha256()
    for item in inputs:
        digest.update(item.name.encode() + b"\0" + item.text.encode() + b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Algebra terms.
# ---------------------------------------------------------------------------


def _atom(rng: random.Random) -> str:
    return rng.choice(ALGEBRA_ATOMS)


def _kqrec(rng: random.Random, k: int, t: int, recursive: set[str]) -> str:
    labels = [format(j, f"0{k}b") for j in range(1 << k)]
    sel = " ".join(f"({w} {'rec' if w in recursive else 'i'})" for w in labels)
    return (
        f"(kqrec :k {k} :t {t} :f {_atom(rng)} :g {_atom(rng)} "
        f":h {_atom(rng)} :sel {sel})"
    )


def algebra_term(rng: random.Random, stratum: str) -> str:
    """A term of the given stratum; the seed picks atoms and selectors.

    Each stratum fixes the recursion shape (k, t and the number of
    recursive selectors), which sets how much work the calls share, so
    that a stratum's compile cost stays close from seed to seed.
    """
    if stratum == "flat":
        return f"(comp {_atom(rng)} (branch {_atom(rng)} {_atom(rng)}))"
    if stratum == "chain":
        return _kqrec(rng, 1, 0, {rng.choice(("0", "1"))})
    if stratum == "merge":
        return _kqrec(rng, 1, 1, {"0", "1"})
    if stratum == "merge2":
        return _kqrec(rng, 2, 1, set(rng.sample(["00", "01", "10", "11"], 2)))
    raise ValueError(f"unknown algebra stratum {stratum!r}")


def algebra_terms(seed: int, per_stratum: int, n: int) -> list[Input]:
    """`per_stratum` terms of every sharing stratum, as term text."""
    rng = random.Random(f"algebra-{seed}")
    out = []
    for stratum in ALGEBRA_STRATA:
        for i in range(per_stratum):
            text = algebra_term(rng, stratum) + "\n"
            out.append(Input(f"term-{stratum}-{i}", text, stratum, 0, 0, n))
    return out


# ---------------------------------------------------------------------------
# Long programs for the front end.
# ---------------------------------------------------------------------------


class _Body:
    """Emits width-0 statements over the set `p` of FRONTEND_QUBITS qubits.

    Quantum-case branches never touch a control qubit of an enclosing
    case, so every generated program runs without reaching the error
    terminal.
    """

    def __init__(self, rng: random.Random, var: str):
        self.rng = rng
        self.var = var
        self.count = 0

    def _qubit(self, busy: frozenset[int]) -> int:
        return self.rng.choice([i for i in range(1, FRONTEND_QUBITS + 1) if i not in busy])

    def simple(self, busy: frozenset[int]) -> str:
        rng, p = self.rng, self.var
        self.count += 1
        roll = rng.random()
        a = self._qubit(busy)
        if roll < 0.25:
            return f"{p}[{a}] *= H;"
        if roll < 0.4:
            return f"{p}[{a}] *= NOT;"
        if roll < 0.55:
            return f"{p}[{a}] *= PH[pi / {rng.choice((2, 4, 8))}](0);"
        if roll < 0.7:
            return f"{p}[{a}] *= RY[pi / {rng.choice((3, 5, 6))}](0);"
        b = self._qubit(busy | {a})
        return f"CNOT({p}[{a}], {p}[{b}]);"

    def block(self, busy: frozenset[int], size: int) -> str:
        return " ".join(self.simple(busy) for _ in range(size))

    def statement(self) -> str:
        rng, p = self.rng, self.var
        roll = rng.random()
        if roll < 0.7:
            return self.simple(frozenset())
        self.count += 1
        if roll < 0.85:
            c = self._qubit(frozenset())
            zero = self.block(frozenset({c}), rng.randint(1, 3))
            one = self.block(frozenset({c}), rng.randint(1, 3))
            return f"qcase {p}[{c}] of {{ 0 -> {zero} , 1 -> {one} }}"
        k = rng.randint(FRONTEND_QUBITS - 3, FRONTEND_QUBITS + 2)
        then = self.block(frozenset(), rng.randint(1, 3))
        other = self.block(frozenset(), rng.randint(1, 3))
        return f"if size({p}) > {k} then {{ {then} }} else {{ {other} }}"


def _straight_program(rng: random.Random, target: int) -> tuple[str, int, int]:
    body = _Body(rng, "p")
    lines = []
    while body.count < target:
        lines.append("  " + body.statement())
    text = "decl body(p) {\n" + "\n".join(lines) + "\n},\n::\ncall body(q);\n"
    return text, body.count + 1, 1


def _chain_program(rng: random.Random, target: int) -> tuple[str, int, int]:
    body = _Body(rng, "p")
    procs = []
    while body.count < target:
        lines = [body.statement() for _ in range(rng.randint(2, 5))]
        procs.append(lines)
    decls = []
    for i, lines in enumerate(procs, start=1):
        if i < len(procs):
            lines = lines + [f"call f{i + 1}(p);"]
        decls.append(f"decl f{i}(p) {{\n  " + "\n  ".join(lines) + "\n},")
    text = "\n".join(decls) + "\n::\ncall f1(q);\n"
    return text, body.count + len(procs), len(procs)


def frontend_programs(seed: int) -> list[Input]:
    """One program of each shape at every size of FRONTEND_SIZES."""
    rng = random.Random(f"frontend-{seed}")
    out = []
    for shape in FRONTEND_SHAPES:
        build = _straight_program if shape == "straight" else _chain_program
        for size in FRONTEND_SIZES:
            target = round(size * rng.uniform(1 - FRONTEND_JITTER, 1 + FRONTEND_JITTER))
            text, stmts, procs = build(rng, target)
            out.append(Input(f"{shape}-{size}", text, shape, stmts, procs, FRONTEND_QUBITS))
    return out


def basis_state(seed: int, name: str, n: int) -> str:
    rng = random.Random(f"state-{seed}-{name}")
    return "".join(rng.choice("01") for _ in range(n))
