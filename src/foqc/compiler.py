"""Compilation of accepted programs into polynomial-size circuits.

`compile_program` turns an accepted (width <= 1, shrinking-recursion)
program on n qubits into a circuit whose non-ancilla behaviour matches the
interpreter exactly.  Classical control (conditionals, indices, set
expressions, a procedure's classical argument, bound in an environment
beside the current list) is evaluated at compile time; quantum cases split
the control structure; recursive calls are the interesting part.

`compr` compiles a statement in program order and expands in place a
call into a procedure of no recursive group.  A call into a recursive
group starts a worklist pass (`optimize`) with one instance: the callee's
body under the call's control.  In a pass, controlled statement instances
(cs, S, l) are peeled left context into C_L and right context into C_R
until only recursive calls remain.  Every call under a control fans into
the control ancilla of its (procedure, argument, set-size) key along one
path — via a routing ancilla and wire swaps when its wire list differs
from the first caller's — and only the first caller of a key expands the
body.  This is what keeps the circuit polynomial: per worklist pass there
are at most |procedures| * (n+1)^2 distinct keys.  Merging pays only
under quantum branches: a call under the empty control is its pass's only
instance, and its body takes its place with no key, so a recursion that
nothing controls is expanded in place, as the walk runs it.

Soundness of the merge rests on an invariant: all control structures in
the worklist are pairwise orthogonal, so at most one instance is active on
any basis state.  The invariant is asserted on every iteration.  Ancilla
controls stand for the input-wire regions fanned into them, so each
control structure is first resolved to a reduced ordered binary decision
diagram (BDD) over the input wires; two structures are disjoint exactly
when the AND of their BDDs is the false node.  Merging ORs a caller's
region into the ancilla's.  The BDD order is the order in which the
compile first pins each wire, the latest on top (`Regions`): a recursion
that pins one more wire per level, from either end of its list, builds
each ancilla's region on top of the last one, so the node table stays
linear in n.

The program is compiled as written: a bounds guard is classical control,
settled where a qubit position is evaluated.  An out-of-range position
compiles to nothing, as the guard would skip it; one that an enclosing
quantum case controls raises the interpreter's `BottomError`.  A merged
body runs under its ancilla alone, so each ancilla also keeps the
positions that its callers' quantum cases pin (`_Context.pinned`).  A
caller can be found after the body was compiled, so the accesses made
under each ancilla are checked once the whole program is compiled
(`_Context.settle_pins`).
"""

from __future__ import annotations

import json
import marshal
from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .analysis import NotPfoqError, analyse, check_wf, refuse_ill_formed
from .circuit import (
    MAX_DENSE_WIRES,
    Circuit,
    ControlledNot,
    ControlledU,
    ControlStructure,
    Gate,
    WireLimitError,
    check_sparse_index,
    lower,
    replay_basis,
    routing_swaps,
    support_bits,
)
from .interpreter import (
    NO_ENV,
    BottomError,
    Env,
    access_error,
    bind_callee,
    eval_bool,
    eval_int,
    eval_qubit,
    eval_set,
    guard_errors,
    walk,
)
from .syntax import (
    Assign,
    Call,
    FoqError,
    If,
    OP_NOT,
    Program,
    QCase,
    Seq,
    Skip,
    Statement,
    format_phase,
    gate_entries,
)


class CompileError(FoqError):
    """Compilation failed (non-accepted program, internal inconsistency)."""


class OrthogonalityError(CompileError):
    """The worklist orthogonality invariant was violated (must not happen)."""


def _extend_control(cs: ControlStructure, wire: int, bit: int) -> ControlStructure:
    """Pin one more wire in a control structure.

    Isolated as a module function so the test suite can disable the
    quantum-case split and confirm the orthogonality assertion catches it.
    """
    return cs.extended(wire, bit)


class Regions:
    """Hash-consed reduced ordered BDDs over the input wires (Bryant 1986).

    A region is an int: 0 is the false node, 1 the true node, and any other
    value indexes `nodes`, a (wire, low, high) triple whose children test
    only wires of lower level.  A wire gets its level in `levels` the first
    time `literal` sees it, above every earlier wire's, so the order
    follows the order in which control structures pin wires, and a new
    variable goes on top without reordering any node already built.  The
    unique table never builds a node with equal children nor the same
    triple twice, so two regions are the same set of basis states exactly
    when they are the same int.
    """

    FALSE = 0
    TRUE = 1

    def __init__(self) -> None:
        self.nodes: list[tuple[int, int, int]] = [(0, 0, 0), (0, 1, 1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._memo: dict[tuple[bool, int, int], int] = {}
        self.levels: dict[int, int] = {}

    def node(self, wire: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (wire, low, high)
        u = self._unique.get(key)
        if u is None:
            u = len(self.nodes)
            self.nodes.append(key)
            self._unique[key] = u
        return u

    def literal(self, wire: int, bit: int) -> int:
        """The region where `wire` holds `bit`."""
        self.levels.setdefault(wire, len(self.levels))
        return self.node(wire, 1 - bit, bit)

    def conj(self, u: int, v: int) -> int:
        return self._apply(True, u, v)

    def disj(self, u: int, v: int) -> int:
        return self._apply(False, u, v)

    def _apply(self, conj: bool, u: int, v: int) -> int:
        # absorbing is the terminal that decides the result alone (false
        # for AND, true for OR); the other terminal is the identity.
        absorbing = self.FALSE if conj else self.TRUE
        if u == absorbing or v == absorbing:
            return absorbing
        if u == 1 - absorbing or u == v:
            return v
        if v == 1 - absorbing:
            return u
        if u > v:
            u, v = v, u
        key = (conj, u, v)
        r = self._memo.get(key)
        if r is None:
            wu, lu, hu = self.nodes[u]
            wv, lv, hv = self.nodes[v]
            wire = wu
            if wu != wv:
                if self.levels[wu] < self.levels[wv]:
                    wire = wv
                    lu = hu = u
                else:
                    lv = hv = v
            r = self.node(wire, self._apply(conj, lu, lv), self._apply(conj, hu, hv))
            self._memo[key] = r
        return r


@dataclass
class _Context:
    """The state of one compile.

    Every control structure that a statement is compiled under pins some
    input wires and at most one merge ancilla, held at 1: the compile
    starts from the empty control, a quantum case pins a position of the
    current list (lists only shrink from 1..n), and a merged body runs
    under its ancilla alone.  A routing ancilla controls only its own
    fan-in gates.  So an ancilla pin always means "the ancilla holds 1"
    (`resolve` refuses any other).
    """

    decls: dict
    # The check's width table of each procedure in a recursive group
    # (`ProcRelations.width_tables`).
    width_tables: dict[str, dict[int, int]]
    n: int
    ancillas: int = 0
    anc_keys: int = 0
    max_worklist: int = 0
    orthogonality_checks: int = 0
    regions: Regions = field(default_factory=Regions)
    # For each merge ancilla, the input-wire region where it holds 1: the
    # OR of the regions of every call merged into it.
    meanings: dict[int, int] = field(default_factory=dict)
    # For each merge ancilla, the positions of its wire list that some
    # caller's control structure pins: its body must not touch them.
    pinned: dict[int, frozenset[int]] = field(
        default_factory=lambda: defaultdict(frozenset)
    )
    # Callers of an ancilla can be found after its body has been compiled,
    # and a caller's own pins grow when callers of an ancilla it holds are.
    # `callers` keeps the (ancilla, cs, sub_l, seen_l) of every call merged
    # into an ancilla (its first one included), and `touched` the first
    # statement per (ancilla, position) accessed under an ancilla, for
    # `settle_pins`.
    callers: list = field(default_factory=list)
    touched: dict[tuple[int, int], Statement] = field(default_factory=dict)
    # The (matrix, label) of each (operator id, argument) compiled so far,
    # interned in `gate_values` by the entries' marshalled bytes, which keep
    # 0.0 apart from -0.0 as `import_json` does: equal operators share one
    # pair.
    gate_data: dict = field(default_factory=dict)
    gate_values: dict = field(default_factory=dict)
    # The gate of each (id of its interned pair, position, control bits)
    # compiled so far, or of each (position, control bits) for a NOT: a
    # repeated gate is the same object (`circuit` module docstring).
    gates: dict = field(default_factory=dict)

    def new_ancilla(self) -> int:
        self.ancillas += 1
        return self.n + self.ancillas

    def key_budget(self) -> int:
        return (len(self.decls) + 1) * (self.n + 1) ** 2

    def resolve(self, cs: ControlStructure) -> int:
        """The input-wire region where a control structure is satisfied:
        an ancilla pin stands for the ancilla's meaning."""
        regions = self.regions
        region = regions.TRUE
        for wire, bit in cs.bits:
            if wire <= self.n:
                pin = regions.literal(wire, bit)
            else:
                if not bit:
                    raise CompileError(
                        f"control pins ancilla {wire} to 0; a compiled control holds"
                        " its ancilla at 1"
                    )
                pin = self.meanings[wire]
            region = regions.conj(region, pin)
        return region

    def carry_pins(
        self, a: int, cs: ControlStructure, sub_l: tuple[int, ...], seen_l: tuple[int, ...]
    ) -> bool:
        """Add a caller's pins to ancilla a's, moved from the caller's wire
        list sub_l to the ancilla's wire list seen_l.  The caller pins its
        input positions, and through a merge ancilla that it holds, the
        positions pinned for that ancilla.  Returns whether a's pins grew."""
        carried: set[int] = set()
        for wire, _ in cs.bits:
            for pos in (wire,) if wire <= self.n else self.pinned[wire]:
                i = bisect_left(sub_l, pos)
                if i < len(sub_l) and sub_l[i] == pos:
                    carried.add(seen_l[i])
        pins = self.pinned[a]
        if carried <= pins:
            return False
        self.pinned[a] = pins | carried
        return True

    def settle_pins(self) -> None:
        """Carry pins along every recorded caller until none grows, then
        raise BottomError for the first access, in compile order, to a
        position pinned for the ancilla it was made under."""
        grew = True
        while grew:
            grew = False
            for caller in self.callers:
                grew |= self.carry_pins(*caller)
        for (a, pos), stmt in self.touched.items():
            if pos in self.pinned[a]:
                raise BottomError(access_error(stmt, pos))


def _position(
    ctx: _Context, stmt: Assign | QCase, l: tuple[int, ...], env: Env, cs: ControlStructure
) -> int:
    """The position stmt acts on, or 0 when it is out of range.

    Raises BottomError when an enclosing quantum case controls the position.
    An access under a merge ancilla is recorded instead: whether a case
    around one of its callers controls the position is known only once
    every caller has been compiled (`_Context.settle_pins`).
    """
    pos = eval_qubit(stmt.qubit, l, env)
    for wire, _ in cs.bits:
        if wire == pos:
            raise BottomError(access_error(stmt, pos))
        if wire > ctx.n:
            ctx.touched.setdefault((wire, pos), stmt)
    return pos


def _assign_gates(
    ctx: _Context, stmt: Assign, l: tuple[int, ...], env: Env, cs: ControlStructure
) -> list[Gate]:
    pos = _position(ctx, stmt, l, env, cs)
    if pos < 1:
        return []
    op = stmt.op
    if op.kind == OP_NOT:
        key = (pos, cs.bits)
        gate = ctx.gates.get(key)
        if gate is None:
            gate = ctx.gates[key] = ControlledNot(cs, pos)
        return [gate]
    arg = eval_int(op.arg, l, env)
    data = ctx.gate_data.get((id(op), arg))
    if data is None:
        u00, u01, u10, u11 = entries = gate_entries(op, arg)
        label = f"{op.kind}[{format_phase(op.phase)}]({arg})"
        data = ctx.gate_values.setdefault(
            (marshal.dumps(entries, 2), label), (((u00, u01), (u10, u11)), label)
        )
        ctx.gate_data[id(op), arg] = data
    key = (id(data), pos, cs.bits)
    gate = ctx.gates.get(key)
    if gate is None:
        gate = ctx.gates[key] = ControlledU(cs, (pos,), *data)
    return [gate]


def compr(
    ctx: _Context, stmt: Statement, l: tuple[int, ...], env: Env, cs: ControlStructure
) -> list[Gate]:
    """Directly compile a statement in program order.

    Runs on an explicit stack of (statement, list, env, control) entries,
    popped in program order, so neither sequence length nor a chain of
    expanded calls deepens the Python stack.  A call into a procedure of
    no recursive group is expanded in place; a call into a recursive group
    starts a worklist pass (`optimize`) whose one instance is the callee's
    body under the call's control.
    """
    gates: list[Gate] = []
    stack = [(stmt, l, env, cs)]
    while stack:
        stmt, l, env, cs = stack.pop()
        if isinstance(stmt, Skip):
            continue
        if isinstance(stmt, Assign):
            gates += _assign_gates(ctx, stmt, l, env, cs)
        elif isinstance(stmt, Seq):
            stack += [(item, l, env, cs) for item in reversed(stmt.items)]
        elif isinstance(stmt, If):
            branch = stmt.then_branch if eval_bool(stmt.cond, l, env) else stmt.else_branch
            stack.append((branch, l, env, cs))
        elif isinstance(stmt, QCase):
            pos = _position(ctx, stmt, l, env, cs)
            if pos < 1:
                continue
            stack.append((stmt.if_one, l, env, _extend_control(cs, pos, 1)))
            stack.append((stmt.if_zero, l, env, _extend_control(cs, pos, 0)))
        elif isinstance(stmt, Call):
            sub_l = eval_set(stmt.set_expr, l, env)
            if not sub_l:
                continue
            decl, sub_env = bind_callee(stmt, ctx.decls, l, env)
            widths = ctx.width_tables.get(stmt.proc)
            if widths is None:
                stack.append((decl.body, sub_l, sub_env, cs))
            else:
                gates += optimize(ctx, deque([(cs, decl.body, sub_l, sub_env)]), widths)
        else:
            raise TypeError(f"not a statement: {stmt!r}")
    return gates


def optimize(ctx: _Context, worklist: deque, widths: dict[int, int]) -> list[Gate]:
    """Worklist compilation of one mutually recursive procedure group,
    whose width table is `widths`.

    `anc` is the pass's own ancilla table: it maps (procedure, classical
    argument, set size) to the control ancilla and wire list of the first
    instance compiled for that key.  A call under the empty control is the
    pass's only instance: the empty control's region is true, which meets
    every other region, so the invariant leaves room for no second one.
    Its body takes its place on the worklist, with no key, ancilla or
    fan-in, so a recursion that no quantum case splits is expanded in
    place, as the walk runs it.  C_R is kept backwards and turned around
    once at the end, so a fan-in's mirror is the fan-in itself.
    """
    anc: dict[tuple[str, int | None, int], tuple[int, tuple[int, ...]]] = {}
    c_left: list[Gate] = []
    c_right: list[Gate] = []  # C_R, last gate first
    while worklist:
        size = len(worklist)
        if size > ctx.max_worklist:
            ctx.max_worklist = size
        # One instance under the empty control has no pair to check, and
        # resolving the empty control builds no region.
        if size > 1 or worklist[0][0].bits:
            resolved = [ctx.resolve(cs_i) for cs_i, _, _, _ in worklist]
            for i, r_i in enumerate(resolved):
                for r_j in resolved[i + 1 :]:
                    ctx.orthogonality_checks += 1
                    if ctx.regions.conj(r_i, r_j) != Regions.FALSE:
                        raise OrthogonalityError(
                            "two worklist instances share a satisfiable control region; "
                            "merging would corrupt the circuit"
                        )
        cs, stmt, l, env = worklist.popleft()
        if widths[id(stmt)] == 0:
            c_left += compr(ctx, stmt, l, env, cs)
            continue
        if isinstance(stmt, Seq):
            # The recursing item is the first of width 1, else the last.
            # Ancilla numbers and the first error depend on the order:
            # prefix, suffix, then the item.
            items = stmt.items
            for k, item in enumerate(items):
                if widths[id(item)] == 1:
                    break
            for item in items[:k]:
                c_left += compr(ctx, item, l, env, cs)
            suffix: list[Gate] = []
            for item in items[k + 1 :]:
                suffix += compr(ctx, item, l, env, cs)
            c_right += reversed(suffix)
            worklist.append((cs, items[k], l, env))
        elif isinstance(stmt, If):
            branch = stmt.then_branch if eval_bool(stmt.cond, l, env) else stmt.else_branch
            worklist.append((cs, branch, l, env))
        elif isinstance(stmt, QCase):
            pos = _position(ctx, stmt, l, env, cs)
            if pos < 1:
                continue
            w0 = widths[id(stmt.if_zero)]
            w1 = widths[id(stmt.if_one)]
            cs0 = _extend_control(cs, pos, 0)
            cs1 = _extend_control(cs, pos, 1)
            if w0 == 1 and w1 == 1:
                worklist.append((cs0, stmt.if_zero, l, env))
                worklist.append((cs1, stmt.if_one, l, env))
            elif w1 == 0:
                worklist.append((cs0, stmt.if_zero, l, env))
                c_right += reversed(compr(ctx, stmt.if_one, l, env, cs1))
            else:
                worklist.append((cs1, stmt.if_one, l, env))
                c_right += reversed(compr(ctx, stmt.if_zero, l, env, cs0))
        elif isinstance(stmt, Call):
            sub_l = eval_set(stmt.set_expr, l, env)
            if not sub_l:
                continue
            decl, sub_env = bind_callee(stmt, ctx.decls, l, env)
            if not cs.bits:
                worklist.append((cs, decl.body, sub_l, sub_env))
                continue
            key = (stmt.proc, sub_env.get(decl.param), len(sub_l))
            entry = anc.get(key)
            if entry is None:
                a = ctx.new_ancilla()
                entry = anc[key] = (a, sub_l)
                ctx.anc_keys += 1
                if len(anc) > ctx.key_budget():
                    raise CompileError(
                        "ancilla table exceeded its polynomial bound; "
                        "this indicates an internal bug"
                    )
                worklist.append((ControlStructure.of({a: 1}), decl.body, sub_l, sub_env))
            a, seen_l = entry
            ctx.meanings[a] = ctx.regions.disj(ctx.meanings.get(a, Regions.FALSE), ctx.resolve(cs))
            ctx.callers.append((a, cs, sub_l, seen_l))
            if sub_l == seen_l:
                fan_in = [ControlledNot(cs, a)]
            else:
                e = ctx.new_ancilla()
                on_e = ControlStructure.of({e: 1})
                fan_in = [ControlledNot(cs, e), ControlledNot(on_e, a)]
                fan_in += routing_swaps(on_e, sub_l, seen_l)
            c_left += fan_in
            c_right += fan_in
        else:
            raise CompileError(f"width-1 statement of unexpected shape: {stmt!r}")
    c_right.reverse()
    c_left += c_right
    return c_left


def compile_with_stats(p: Program, n: int, check: bool = True):
    """Compile to a circuit, returning (circuit, statistics dict).

    With check=False a rejected program is compiled all the same.  An
    ill-formed program is refused as `run` refuses it.
    """
    verdict, relations = analyse(p)
    if check and not verdict.accepted:
        refuse_ill_formed(check_wf(p, relations.decl_refs, relations.main_refs))
        raise NotPfoqError(
            "program rejected by the tractability check: "
            + "; ".join(verdict.diagnostics)
        )
    ctx = _Context(decls=p.decl_map(), width_tables=relations.width_tables, n=n)
    gates = compr(ctx, p.main, tuple(range(1, n + 1)), NO_ENV, ControlStructure.empty())
    ctx.settle_pins()
    circuit = Circuit(n, ctx.ancillas, tuple(gates))
    stats = {
        "gates": circuit.gate_count(),
        "wires": circuit.total_wires,
        "ancillas": circuit.ancillas,
        "anc_keys": ctx.anc_keys,
        "max_worklist": ctx.max_worklist,
        "orthogonality_checks": ctx.orthogonality_checks,
    }
    return circuit, stats


def compile_program(p: Program, n: int, check: bool = True) -> Circuit:
    return compile_with_stats(p, n, check)[0]


# ---------------------------------------------------------------------------
# Differential check: interpreter vs. compiled circuit.
# ---------------------------------------------------------------------------


@dataclass
class DiffReport:
    n: int
    cases: int
    max_deviation: float
    max_ancilla_residue: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


# Basis states `diff_check` draws once 2^n exceeds 64.
DIFF_SAMPLES = 32

# Basis states per `diff_check` chunk times the entries one basis column
# may reach, 2^b with b the larger `circuit.support_bits` of the two sides:
# a chunk's sparse pass holds at most 2^15 entries a side (one column once
# b > 15).  `diff` refuses a program whose columns may hold more than
# 2^MAX_DENSE_WIRES entries a side together, columns x 2^b, before it
# replays anything: the limit bounds a whole `diff`'s work, not one column.
DIFF_CHUNK_AMPLITUDES = 1 << 15


def _max_deviation(keys0, amps0, keys1, amps1) -> float:
    """The largest |amps1 - amps0| over two summed sparse columns
    (`replay_basis`), a key missing on one side counting as zero there.

    When both sides hold the same keys in the same order, as they do when
    the op lists differ only in their float data, the amplitudes are
    compared position by position; otherwise both are placed on the
    sorted union of their keys.
    """
    if not np.array_equal(keys0, keys1):
        keys = np.union1d(keys0, keys1)
        amps0 = _placed(keys, keys0, amps0)
        amps1 = _placed(keys, keys1, amps1)
    return float(np.max(np.abs(amps1 - amps0)))


def _placed(keys: np.ndarray, some: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """amps, held at keys `some`, placed on the ascending `keys`."""
    out = np.zeros(keys.shape, dtype=complex)
    out[np.searchsorted(keys, some)] = amps
    return out


def _column_bits(ops, columns: int) -> int:
    """`support_bits(ops)`, refused when `columns` basis columns of that
    support may hold more than 2^MAX_DENSE_WIRES entries together."""
    bits = support_bits(ops)
    if columns << bits > 1 << MAX_DENSE_WIRES:
        raise WireLimitError(
            f"{columns} basis columns that may each spread over {bits} wires need up to"
            f" {columns} x 2^{bits} entries a side, which exceeds the limit of"
            f" {MAX_DENSE_WIRES} wires (2^{MAX_DENSE_WIRES} entries)"
        )
    return bits


def diff_check(p: Program, n: int, seed: int = 0) -> DiffReport:
    """Compare interpreter and compiled circuit on basis states.

    Exhaustive over all 2^n basis states when that is at most 64, otherwise
    over `DIFF_SAMPLES` basis states drawn at random.  The interpreter walks the
    program once and the circuit is lowered once, into ops of one sparse
    kernel; the states are taken in chunks sized by the ops' support bound,
    and each chunk replays both sides' ops on its states as the columns of
    one sparse state (`replay_basis`), the circuit's ancillas summed out on
    it.  The two sides' sparse columns are compared entry by entry, so no
    state over all wires and no dense output is built.  A side whose basis
    states (as many as are drawn) may together hold more than
    2^MAX_DENSE_WIRES entries raises WireLimitError before anything is
    replayed; the circuit's side is checked first, before the walk.  So
    does a chunk whose tagged indices would not fit the sparse index
    (`check_sparse_index`), before any basis state is drawn.  After the
    draw, a circuit without ancillas whose ops equal the walk's exactly is
    not replayed: one op list on one deterministic kernel gives both sides
    the same column on every basis state, so both maxima are 0.0
    (translation validation: Pnueli, Siegel and Singerman, TACAS 1998).
    """
    dim = 1 << n
    columns = dim if dim <= 64 else DIFF_SAMPLES
    circuit = compile_program(p, n)
    actual_ops = lower(circuit)
    bits = _column_bits(actual_ops, columns)
    expected_ops = walk(guard_errors(p), n).ops
    bits = max(bits, _column_bits(expected_ops, columns))
    chunk = max(1, DIFF_CHUNK_AMPLITUDES >> bits)
    check_sparse_index(n + circuit.ancillas, min(chunk, columns))
    if dim <= 64:
        basis = list(range(dim))
    else:
        rng = np.random.default_rng(seed)
        basis = sorted(set(int(x) for x in rng.integers(0, dim, size=DIFF_SAMPLES)))
    if circuit.ancillas == 0 and actual_ops == expected_ops:
        return DiffReport(n, len(basis), 0.0, 0.0)
    max_dev = 0.0
    max_residue = 0.0
    for start in range(0, len(basis), chunk):
        columns = basis[start : start + chunk]
        keys0, amps0, _ = replay_basis(expected_ops, n, 0, columns)
        keys1, amps1, residue = replay_basis(actual_ops, n, circuit.ancillas, columns)
        max_dev = max(max_dev, _max_deviation(keys0, amps0, keys1, amps1))
        max_residue = max(max_residue, float(np.max(residue)))
    return DiffReport(n, len(basis), max_dev, max_residue)
