"""Static analysis: call relations, recursion shape, and the tractability check.

A program is accepted by `check_pfoq` when it is well formed, every call
argument between mutually recursive procedures is a strict syntactic
restriction of the procedure's own set parameter, and no statement can
trigger more than one mutually recursive call on any control-flow path
(width at most one).  Accepted programs admit a polynomial-size circuit
compilation; the degree of the bounding polynomial is read off the
recursion ranks.

Well formed means (`check_wf`, diagnostics in this order):
  - procedure names are pairwise distinct;
  - each procedure body uses only its own set parameter and its own
    classical parameter, if it has one;
  - every call names a declared procedure and passes a classical argument
    exactly when that procedure takes one;
  - the main statement uses at most one set variable and no integer
    variable, and its calls obey the same call rule.
`check_wf` reads only what each body refers to, not the call relations,
so a program can be refused as ill formed without building them.

Relations on procedure names:
  - direct: P calls Q somewhere in P's body.
  - reachable: reflexive-transitive closure of direct, from given roots.
  - equiv: mutual reachability (every procedure is equivalent to itself).
  - strict: reachable but not equiv.

`call_relations` walks each body once (`statement_refs`), collecting its
variables and calls, and every later step reads those.  The check never
builds `reachable` for every procedure, which grows quadratically on a
chain of calls: `equiv` is read off the strongly connected components,
ranks are longest paths over the graph of components, the degree's
reachable set is one search from the main statement's callees, and only
recursive groups are measured for width: the check takes linear time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from .syntax import (
    Assign,
    BoolBin,
    BoolCmp,
    BoolExpr,
    BoolNot,
    Call,
    FoqError,
    If,
    IntExpr,
    IntLit,
    IntOffset,
    IntVar,
    Program,
    QCase,
    Seq,
    SetExpr,
    SetRemove,
    SetSize,
    SetVar,
    Skip,
    Statement,
    format_set,
)

# Counter of elementary relation/width computations, exposed so the test
# suite can check the analysis scales quadratically with program size.
_OP_COUNT = 0


def reset_op_count() -> None:
    global _OP_COUNT
    _OP_COUNT = 0


def op_count() -> int:
    return _OP_COUNT


def _tick(amount: int = 1) -> None:
    global _OP_COUNT
    _OP_COUNT += amount


class NotPfoqError(FoqError):
    """Raised when an operation requires an accepted program but got none."""


def refuse_ill_formed(diags: list[str]) -> None:
    """Raise NotPfoqError naming `check_wf`'s diagnostics, if there are any."""
    if diags:
        raise NotPfoqError("ill-formed program: " + "; ".join(diags))


# ---------------------------------------------------------------------------
# Variables and calls of a statement.
# ---------------------------------------------------------------------------


class StatementRefs(NamedTuple):
    set_vars: set[str]
    int_vars: set[str]
    calls: list[Call]  # in program order


def _set_vars(s: SetExpr, set_out: set[str], int_out: set[str]) -> None:
    if isinstance(s, SetVar):
        set_out.add(s.name)
    elif isinstance(s, SetRemove):
        _set_vars(s.base, set_out, int_out)
        for index in s.indices:
            _int_vars_full(index, set_out, int_out)


def _int_vars_full(e: IntExpr | None, set_out: set[str], int_out: set[str]) -> None:
    if e is None or isinstance(e, IntLit):
        return
    if isinstance(e, IntVar):
        int_out.add(e.name)
    elif isinstance(e, IntOffset):
        _int_vars_full(e.base, set_out, int_out)
    elif isinstance(e, SetSize):
        _set_vars(e.set_expr, set_out, int_out)


def _bool_vars(b: BoolExpr, set_out: set[str], int_out: set[str]) -> None:
    if isinstance(b, BoolCmp):
        _int_vars_full(b.left, set_out, int_out)
        _int_vars_full(b.right, set_out, int_out)
    elif isinstance(b, BoolBin):
        for operand in b.operands:
            _bool_vars(operand, set_out, int_out)
    elif isinstance(b, BoolNot):
        _bool_vars(b.inner, set_out, int_out)


def statement_refs(stmt: Statement) -> StatementRefs:
    """The set variables, integer variables and calls of a statement, in
    one walk on an explicit stack."""
    refs = StatementRefs(set(), set(), [])
    sets, ints = refs.set_vars, refs.int_vars
    stack = [stmt]
    while stack:
        s = stack.pop()
        if isinstance(s, Assign):
            _set_vars(s.qubit.set_expr, sets, ints)
            _int_vars_full(s.qubit.index, sets, ints)
            _int_vars_full(s.op.arg, sets, ints)
        elif isinstance(s, Seq):
            stack.extend(reversed(s.items))
        elif isinstance(s, If):
            _bool_vars(s.cond, sets, ints)
            stack += (s.else_branch, s.then_branch)
        elif isinstance(s, QCase):
            _set_vars(s.qubit.set_expr, sets, ints)
            _int_vars_full(s.qubit.index, sets, ints)
            stack += (s.if_one, s.if_zero)
        elif isinstance(s, Call):
            _int_vars_full(s.arg, sets, ints)
            _set_vars(s.set_expr, sets, ints)
            refs.calls.append(s)
    return refs


# ---------------------------------------------------------------------------
# Call relations.
# ---------------------------------------------------------------------------


@dataclass
class ProcRelations:
    procedures: tuple[str, ...]
    direct: dict[str, set[str]]
    equiv: dict[str, set[str]]
    # The strongly connected components (the sets shared by `equiv`), each
    # listed after every component that one of its procedures calls.
    components: list[set[str]]
    # What each body refers to, aligned with the program's declarations
    # (a duplicate name keeps its own entry), and what main refers to.
    decl_refs: list[StatementRefs]
    main_refs: StatementRefs
    # Filled by `analyse`: for each procedure of a recursive group, the
    # group's width table, the `statement_width` of every subtree of the
    # group's bodies keyed by its id().  The program keeps the subtrees
    # alive.  A procedure outside every recursive group has no table.
    width_tables: dict[str, dict[int, int]] = field(default_factory=dict)

    def reachable(self, roots) -> set[str]:
        """Every procedure that one of `roots` reaches, the roots included."""
        seen = set(roots)
        frontier = list(seen)
        while frontier:
            for callee in self.direct[frontier.pop()]:
                _tick()
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen


def _components(names: tuple[str, ...], direct: dict[str, set[str]]) -> list[set[str]]:
    """Tarjan's strongly connected components, on an explicit stack.

    A component is complete only after every component it calls, so the
    list comes out with callees first.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    done: set[str] = set()
    components: list[set[str]] = []
    for root in names:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(direct[root]))]
        while work:
            name, callees = work[-1]
            for callee in callees:
                _tick()
                if callee not in index:
                    index[callee] = low[callee] = len(index)
                    stack.append(callee)
                    work.append((callee, iter(direct[callee])))
                    break
                if callee not in done:  # still on the stack: same component
                    low[name] = min(low[name], index[callee])
            else:
                work.pop()
                if work:
                    caller = work[-1][0]
                    low[caller] = min(low[caller], low[name])
                if low[name] == index[name]:
                    component = set()
                    while name not in component:
                        component.add(stack.pop())
                    done |= component
                    components.append(component)
    return components


def program_refs(p: Program) -> tuple[list[StatementRefs], StatementRefs]:
    """What each body refers to, aligned with the declarations, and what
    the main statement refers to."""
    return [statement_refs(d.body) for d in p.decls], statement_refs(p.main)


def call_relations(p: Program) -> ProcRelations:
    names = tuple(d.name for d in p.decls)
    decl_refs, main_refs = program_refs(p)
    direct: dict[str, set[str]] = {name: set() for name in names}
    for d, refs in zip(p.decls, decl_refs):
        for call in refs.calls:
            # An unknown callee would break the closures, so it is left out
            # (well-formedness reports it separately).
            if call.proc in direct[d.name] or call.proc not in direct:
                _tick()
            else:
                direct[d.name].add(call.proc)
            _tick()

    components = _components(names, direct)
    equiv = {name: component for component in components for name in component}
    return ProcRelations(names, direct, equiv, components, decl_refs, main_refs)


# ---------------------------------------------------------------------------
# Well-formedness and well-founded call arguments.
# ---------------------------------------------------------------------------


def _is_strict_restriction(set_expr, param: str) -> bool:
    """True when the argument is the set parameter with >= 1 removals."""
    base = set_expr.base if isinstance(set_expr, SetRemove) else None
    return isinstance(base, SetVar) and base.name == param


def check_wf(p: Program, decl_refs: list[StatementRefs], main: StatementRefs) -> list[str]:
    """The well-formedness diagnostics (see the module docstring), read off
    `program_refs(p)`; empty when p is well formed."""
    diags: list[str] = []
    seen: set[str] = set()
    for d in p.decls:
        if d.name in seen:
            diags.append(f"duplicate procedure declaration: {d.name}")
        seen.add(d.name)
    decl_map = p.decl_map()

    def check_calls(where: str, calls: list[Call]) -> None:
        for call in calls:
            target = decl_map.get(call.proc)
            if target is None:
                diags.append(f"{where}: call to undeclared procedure {call.proc}")
            elif target.param is None and call.arg is not None:
                diags.append(
                    f"{where}: procedure {call.proc} takes no classical argument"
                )
            elif target.param is not None and call.arg is None:
                diags.append(
                    f"{where}: procedure {call.proc} requires a classical argument"
                )

    for d, refs in zip(p.decls, decl_refs):
        bad_sets = refs.set_vars - {d.set_param}
        if bad_sets:
            diags.append(
                f"procedure {d.name}: unknown set variable(s) {sorted(bad_sets)}"
            )
        bad_ints = refs.int_vars - {d.param}
        if bad_ints:
            diags.append(
                f"procedure {d.name}: unknown integer variable(s) {sorted(bad_ints)}"
            )
        check_calls(f"procedure {d.name}", refs.calls)

    if len(main.set_vars) > 1:
        diags.append(f"main statement uses several set variables: {sorted(main.set_vars)}")
    if main.int_vars:
        diags.append(f"main statement uses integer variable(s): {sorted(main.int_vars)}")
    check_calls("main statement", main.calls)
    return diags


# ---------------------------------------------------------------------------
# Width: the maximum number of mutually recursive calls on one path.
# ---------------------------------------------------------------------------


def statement_width(stmt: Statement, group: set[str], memo: dict[int, int]) -> int:
    """Maximal number of calls into `group` along one control-flow path.

    `memo` is the group's width table, keyed by each subtree's id(); only
    recursive groups have one.  The caller keeps the statements alive and
    one table per group: a subtree may sit in procedures of several
    groups, as the leaves that the parser shares among their equal copies
    do (`parser._Parser.parse_stmt`), or a `Call` that a program built by
    hand puts in two bodies.
    """
    w = memo.get(id(stmt))
    if w is not None:
        return w
    _tick()
    if isinstance(stmt, (Skip, Assign)):
        w = 0
    elif isinstance(stmt, Seq):
        w = sum(statement_width(item, group, memo) for item in stmt.items)
    elif isinstance(stmt, If):
        w = max(
            statement_width(stmt.then_branch, group, memo),
            statement_width(stmt.else_branch, group, memo),
        )
    elif isinstance(stmt, QCase):
        w = max(
            statement_width(stmt.if_zero, group, memo),
            statement_width(stmt.if_one, group, memo),
        )
    elif isinstance(stmt, Call):
        w = 1 if stmt.proc in group else 0
    else:
        raise TypeError(f"not a statement: {stmt!r}")
    memo[id(stmt)] = w
    return w


# ---------------------------------------------------------------------------
# Rank and the level-bound degree.
# ---------------------------------------------------------------------------


def ranks(relations: ProcRelations) -> dict[str, int]:
    """rank(P) = 0 if P strictly dominates nothing, else 1 + max over those.

    That is the longest path below P's component in the graph of
    components, read off in one pass over the components, callees first.
    """
    rank: dict[str, int] = {}
    for component in relations.components:
        below = -1
        for name in component:
            for callee in relations.direct[name]:
                _tick()
                if callee not in component:
                    below = max(below, rank[callee])
        for name in component:
            rank[name] = below + 1
    return {name: rank[name] for name in relations.procedures}


@dataclass
class PfoqVerdict:
    accepted: bool
    widths: dict[str, int]
    ranks: dict[str, int]
    degree: int | None
    diagnostics: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def analyse(p: Program) -> tuple[PfoqVerdict, ProcRelations]:
    """The tractability verdict and the call relations it was decided on."""
    relations = call_relations(p)
    diags = check_wf(p, relations.decl_refs, relations.main_refs)
    # Mutual recursion must shrink the set argument.
    for d, refs in zip(p.decls, relations.decl_refs):
        for call in refs.calls:
            _tick()
            if call.proc not in relations.equiv[d.name]:
                continue
            if not _is_strict_restriction(call.set_expr, d.set_param):
                diags.append(
                    f"procedure {d.name}: recursive call to {call.proc} does not "
                    f"strictly shrink the set parameter "
                    f"(argument {format_set(call.set_expr)})"
                )
    # A recursive group measures its bodies into one table; a procedure
    # outside every group never calls itself, so its width is 0 unwalked.
    tables = relations.width_tables
    for component in relations.components:
        if len(component) > 1 or any(name in relations.direct[name] for name in component):
            table: dict[int, int] = {}
            tables.update(dict.fromkeys(component, table))
    # A name declared twice reports its widest body; each body wider than
    # one gets its own diagnostic.
    width_map: dict[str, int] = {}
    for d in p.decls:
        table = tables.get(d.name)
        w = 0 if table is None else statement_width(d.body, relations.equiv[d.name], table)
        width_map[d.name] = max(w, width_map.get(d.name, 0))
        if w > 1:
            diags.append(
                f"procedure {d.name}: {w} mutually recursive calls on one path "
                f"(at most one is allowed)"
            )
    rank_map = ranks(relations)
    accepted = not diags
    degree = None
    if accepted:
        roots = {call.proc for call in relations.main_refs.calls} & set(relations.direct)
        reachable = relations.reachable(roots)
        max_rank = max((rank_map[name] for name in reachable), default=0)
        degree = max_rank + 1
    return PfoqVerdict(accepted, width_map, rank_map, degree, diags), relations


def check_pfoq(p: Program) -> PfoqVerdict:
    """Decide membership in the tractable fragment.

    Guarding (`guard_errors`) only wraps assignments and quantum cases in a
    classical test, so the verdict is the same on the guarded program.
    """
    return analyse(p)[0]
