"""Program inversion.

Every FOQ program computes a unitary on the accessible qubits; this module
builds the program computing the adjoint.  Sequences are reversed,
conditional and quantum-case branches are inverted in place, basic
operators are replaced by their adjoints (NOT is self-inverse; rotations
and phases negate their phase function, with double negation collapsed),
and calls are redirected to the inverted procedures.
"""

from __future__ import annotations

from .syntax import (
    Assign,
    Call,
    If,
    Program,
    ProcDecl,
    QCase,
    Seq,
    Skip,
    Statement,
    invert_operator,
)


def invert_statement(stmt: Statement) -> Statement:
    if isinstance(stmt, Skip):
        return stmt
    if isinstance(stmt, Assign):
        return Assign(stmt.qubit, invert_operator(stmt.op))
    if isinstance(stmt, Seq):
        return Seq(*(invert_statement(item) for item in reversed(stmt.items)))
    if isinstance(stmt, If):
        return If(
            stmt.cond,
            invert_statement(stmt.then_branch),
            invert_statement(stmt.else_branch),
        )
    if isinstance(stmt, QCase):
        return QCase(
            stmt.qubit, invert_statement(stmt.if_zero), invert_statement(stmt.if_one)
        )
    if isinstance(stmt, Call):
        return stmt
    raise TypeError(f"not a statement: {stmt!r}")


def invert(p: Program) -> Program:
    """The program computing the adjoint unitary.

    Involutive up to double-negation collapse: invert(invert(p)) == p.
    """
    decls = tuple(
        ProcDecl(d.name, d.param, d.set_param, invert_statement(d.body))
        for d in p.decls
    )
    return Program(decls, invert_statement(p.main))
