"""Static analysis: call relations, recursion shape, and the tractability check.

A program is accepted by `check_pfoq` when (1) every call argument between
mutually recursive procedures is a strict syntactic restriction of the
procedure's own set parameter, and (2) no statement can trigger more than
one mutually recursive call on any control-flow path (width at most one).
Accepted programs admit a polynomial-size circuit compilation; the degree
of the bounding polynomial is read off the recursion ranks.

Relations on procedure names:
  - direct: P calls Q somewhere in P's body.
  - reaches: reflexive-transitive closure of direct.
  - equiv: mutual reachability (every procedure is equivalent to itself).
  - strict: reaches but not equiv.

The check never builds `reaches` or `strict`, which grow quadratically on
a chain of calls: `equiv` is read off the strongly connected components,
ranks are longest paths over the graph of components, and the degree's
reachable set is one search from the main statement's callees.  So the
check takes time linear in the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .syntax import (
    Assign,
    Call,
    FoqError,
    If,
    Program,
    QCase,
    Seq,
    SetRemove,
    SetVar,
    Skip,
    Statement,
    format_set,
    statement_calls,
    wellformed_check,
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


@dataclass
class ProcRelations:
    procedures: tuple[str, ...]
    direct: dict[str, set[str]]
    equiv: dict[str, set[str]]
    # The strongly connected components (the sets shared by `equiv`), each
    # listed after every component that one of its procedures calls.
    components: list[set[str]]

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

    @cached_property
    def reaches(self) -> dict[str, set[str]]:
        """Quadratic in size on a chain of calls, so built only on request."""
        return {name: self.reachable([name]) for name in self.procedures}

    @cached_property
    def strict(self) -> dict[str, set[str]]:
        return {name: self.reaches[name] - self.equiv[name] for name in self.procedures}


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


def call_relations(p: Program) -> ProcRelations:
    names = tuple(d.name for d in p.decls)
    direct: dict[str, set[str]] = {name: set() for name in names}
    for d in p.decls:
        for call in statement_calls(d.body):
            if call.proc in direct[d.name] or call.proc not in direct:
                _tick()
            direct[d.name].add(call.proc)
            _tick()
    # Unknown callees would break the closures; drop them (well-formedness
    # reports them separately).
    for name in names:
        direct[name] &= set(names)

    components = _components(names, direct)
    equiv = {name: component for component in components for name in component}
    return ProcRelations(names, direct, equiv, components)


# ---------------------------------------------------------------------------
# Well-founded call arguments.
# ---------------------------------------------------------------------------


def _is_strict_restriction(set_expr, param: str) -> bool:
    """True when the argument is the set parameter with >= 1 removals."""
    removals = 0
    base = set_expr
    while isinstance(base, SetRemove):
        removals += 1
        base = base.base
    return removals >= 1 and isinstance(base, SetVar) and base.name == param


def check_wf(p: Program, relations: ProcRelations | None = None) -> tuple[bool, list[str]]:
    """Check that mutual recursion always shrinks the set argument."""
    diags = wellformed_check(p)
    relations = relations or call_relations(p)
    for d in p.decls:
        for call in statement_calls(d.body):
            _tick()
            if call.proc not in relations.equiv.get(d.name, set()):
                continue
            if not _is_strict_restriction(call.set_expr, d.set_param):
                diags.append(
                    f"procedure {d.name}: recursive call to {call.proc} does not "
                    f"strictly shrink the set parameter "
                    f"(argument {format_set(call.set_expr)})"
                )
    return not diags, diags


# ---------------------------------------------------------------------------
# Width: the maximum number of mutually recursive calls on one path.
# ---------------------------------------------------------------------------


def statement_width(
    stmt: Statement, group: set[str], memo: dict[int, int] | None = None
) -> int:
    """Maximal number of calls into `group` along one control-flow path.

    With `memo`, every subtree's width is stored under its id() and looked
    up before walking it again.  The caller keeps the statements alive and
    measures each statement against one group only.  The one kind of
    subtree that may sit in procedures of several groups is a leaf the
    parser shares among its equal copies (`parser._Parser.parse_stmt`); a
    leaf holds no `Call`, so its width is 0 against every group.
    """
    if memo is not None:
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
    if memo is not None:
        memo[id(stmt)] = w
    return w


def widths(p: Program, relations: ProcRelations | None = None) -> dict[str, int]:
    relations = relations or call_relations(p)
    return {
        d.name: statement_width(d.body, relations.equiv[d.name]) for d in p.decls
    }


# ---------------------------------------------------------------------------
# Rank and the level-bound degree.
# ---------------------------------------------------------------------------


def ranks(p: Program, relations: ProcRelations | None = None) -> dict[str, int]:
    """rank(P) = 0 if P strictly dominates nothing, else 1 + max over those.

    That is the longest path below P's component in the graph of
    components, read off in one pass over the components, callees first.
    """
    relations = relations or call_relations(p)
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
        return json.dumps(
            {
                "accepted": self.accepted,
                "widths": self.widths,
                "ranks": self.ranks,
                "degree": self.degree,
                "diagnostics": self.diagnostics,
            },
            indent=2,
            sort_keys=True,
        )


def analyse(p: Program) -> tuple[PfoqVerdict, ProcRelations]:
    """The tractability verdict and the call relations it was decided on."""
    relations = call_relations(p)
    ok, diags = check_wf(p, relations)
    width_map = widths(p, relations)
    rank_map = ranks(p, relations)
    for name, w in width_map.items():
        if w > 1:
            diags.append(
                f"procedure {name}: {w} mutually recursive calls on one path "
                f"(at most one is allowed)"
            )
    accepted = ok and all(w <= 1 for w in width_map.values())
    degree = None
    if accepted:
        roots = {call.proc for call in statement_calls(p.main)} & set(relations.direct)
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


def level_bound_degree(p: Program) -> int:
    """Degree of the polynomial bounding the level; requires acceptance."""
    verdict = check_pfoq(p)
    if not verdict.accepted:
        raise NotPfoqError(
            "level bound is only available for accepted programs: "
            + "; ".join(verdict.diagnostics)
        )
    return verdict.degree
