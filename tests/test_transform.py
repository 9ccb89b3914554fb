import numpy as np

from foqc import parse_program, pretty_print, run
from foqc.syntax import Assign, If, QCase
from foqc.transform import invert

from test_properties import random_state


def test_sequence_order_is_reversed():
    program = parse_program(":: q[1] *= NOT; q[2] *= PH[pi](0);")
    inv = invert(program)
    first, second = inv.main.first, inv.main.second
    assert isinstance(first, Assign) and first.qubit.index.value == 2
    assert isinstance(second, Assign) and second.qubit.index.value == 1


def test_branches_are_inverted_in_place():
    program = parse_program(
        ":: if size(q) > 1 then { q[1] *= PH[pi](0); } else { skip; }"
    )
    inv = invert(program)
    assert isinstance(inv.main, If)
    assert "PH[-pi]" in pretty_print(inv)


def test_qcase_branches_inverted():
    program = parse_program(
        ":: qcase q[1] of { 0 -> q[2] *= PH[pi / 2](0); , 1 -> skip; }"
    )
    inv = invert(program)
    assert isinstance(inv.main, QCase)
    assert "PH[-(pi / 2)]" in pretty_print(inv)


def test_double_inversion_is_identity(corpus):
    for program in corpus.values():
        assert invert(invert(program)) == program


def test_inversion_reverses_corpus_semantics(corpus):
    rng = np.random.default_rng(23)
    for name, program in corpus.items():
        inv = invert(program)
        for _ in range(4):
            state = random_state(3, rng)
            forward = run(program, state).state
            back = run(inv, forward).state
            assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)


def test_procedure_bodies_are_inverted(qft):
    inv = invert(qft)
    assert {d.name for d in inv.decls} == {d.name for d in qft.decls}
    assert inv.decls != qft.decls
