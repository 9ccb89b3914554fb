"""Byte-level fingerprints of parser, compiler, analysis and interpreter output.

Each test hashes the exact text the toolchain produces on a fixed corpus:
circuit JSON and compile statistics, verdict JSON, `foqc run`, `foqc simulate`
and `foqc diff` stdout, the circuits of a few algebra terms, and the parse errors of mutated
programs.  A refactor that is meant to leave
outputs unchanged must leave every digest unchanged; a change that moves
them on purpose records the new digests here and says why.
"""

import hashlib
import json
import random

import pytest

from foqc import check_pfoq, compile_with_stats, export_json, parse_program
from foqc.algebra import parse_term, to_pfoq
from foqc.cli import dispatch
from foqc.interpreter import BottomError
from foqc.parser import ParseError, tokenize
from foqc.programs import EXAMPLES

from test_long_programs import chain_program, straight_program

# A procedure whose classical parameter reaches every position it can
# occupy: a qubit index, a removal index, an operator argument, a condition
# and a recursive call's argument.
PARAMETERISED_SOURCE = """\
decl f[x](p) {
  if (size(p) >= x && x > 1) then {
    p[x] *= RY[pi / 2^x](x);
    qcase p[1] of {
      0 -> p[x] *= PH[pi / x](x + 1);
      ,
      1 -> skip;
    }
    call f[x - 1](p \\ [x]);
  } else {
    p[1] *= NOT;
  }
},
:: call f[3](q);
"""

CORPUS = dict(EXAMPLES, **{"parameterised.foq": PARAMETERISED_SOURCE})

TERMS = [
    "(comp (branch i not) swap (ph pi))",
    "(comp (rot pi / 4) (branch (ph pi / 2) swap))",
    "(kqrec :k 1 :t 0 :f i :g (rot pi / 4) :h i :sel (0 rec) (1 i))",
    "(kqrec :k 1 :t 1 :f not :g (ph pi / 3) :h swap :sel (0 rec) (1 rec))",
    "(kqrec :k 2 :t 1 :f not :g i :h swap :sel (00 rec) (01 i) (10 i) (11 rec))",
    "(kqrec :k 2 :t 2 :f (rot pi / 8) :g not :h (ph pi) :sel (00 i) (01 rec) (10 rec) (11 i))",
]

RUN_STATES = ["0", "1", "0110", "10110", "110100"]


def digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\0")
    return h.hexdigest()


@pytest.fixture(scope="module")
def programs():
    return {name: parse_program(src, name) for name, src in CORPUS.items()}


def test_example_circuits_and_stats(programs):
    chunks = []
    for name, program in programs.items():
        for n in range(1, 11):
            circuit, stats = compile_with_stats(program, n)
            chunks += [name, str(n), export_json(circuit), json.dumps(stats, sort_keys=True)]
    # Moved when the worklist began to take the longest list first: at even
    # n, appendix-b merges a key's last caller before the key's body, so two
    # commuting gates swap, and `orthogonality_checks` falls.
    assert digest(chunks) == (
        "79a1c41caf791759480afcfd92d0e953db6d1bb79d44c9038e3f9a1596bb8717"
    )


def test_example_verdicts(programs):
    chunks = [check_pfoq(program).to_json() for program in programs.values()]
    assert digest(chunks) == (
        "cfb34fca16d15aca9130696d9630b2aea6d91aeae133dd8a670af282759da9e1"
    )


def test_run_stdout(tmp_path, capsys):
    chunks = []
    for name, src in CORPUS.items():
        path = tmp_path / name
        path.write_text(src)
        for bits in RUN_STATES:
            code = dispatch(["run", str(path), "--state", bits])
            captured = capsys.readouterr()
            chunks += [name, bits, str(code), captured.out, captured.err]
    # The sparse state holds no explicit zeros, so an amplitude that is zero
    # prints as [0.0, 0.0]; where it printed a -0.0 (3 teleport outputs),
    # this digest moved, and every nonzero amplitude kept its bits.
    assert digest(chunks) == (
        "65b8392b6cd510ee1e1aa1e211613a31cc67ffb63f6632c87dc3a2e6bfb41aec"
    )


# The bundled programs at n = 1..12, plus the one (program, n) of the
# `diff-verify` benchmark grid past n = 12.
DIFF_REQUESTS = [
    (name, n) for name in EXAMPLES for n in range(1, 13)
] + [("teleport.foq", 15)]


def test_diff_stdout(tmp_path, capsys):
    chunks = []
    for name, n in DIFF_REQUESTS:
        path = tmp_path / name
        path.write_text(EXAMPLES[name])
        for seed in (0, 7):
            code = dispatch(["diff", str(path), "-n", str(n), "--seed", str(seed)])
            captured = capsys.readouterr()
            chunks += [name, str(n), str(seed), str(code), captured.out, captured.err]
    assert digest(chunks) == (
        "7be43de3e52717eadd6e21996ec339735b8094cc0419d9fab40ccdefeeb7fef2"
    )


def test_algebra_circuits():
    chunks = []
    for text in TERMS:
        program = to_pfoq(parse_term(text))
        for n in (2, 4, 7):
            circuit, stats = compile_with_stats(program, n)
            chunks += [text, str(n), export_json(circuit), json.dumps(stats, sort_keys=True)]
    assert digest(chunks) == (
        "9e75343953cba62dda2271bbcbd2bbe1107d0a813c47d59b839a626c0f94a9a0"
    )


def token_mutants(name, text, rng, per_kind=40):
    """Seeded single-token deletions, duplications and swaps of `text`."""
    spans = [(t.begin, t.begin + len(t.text)) for t in tokenize(text, name)[:-1]]
    for _ in range(per_kind):
        b, e = rng.choice(spans)
        yield text[:b] + text[e:]
        b, e = rng.choice(spans)
        yield text[:b] + text[b:e] + " " + text[b:]
        (b1, e1), (b2, e2) = sorted(rng.sample(spans, 2))
        yield text[:b1] + text[b2:e2] + text[e1:b2] + text[b1:e1] + text[e2:]


def test_parse_error_texts():
    sources = dict(EXAMPLES)
    sources["straight.foq"] = straight_program(120)
    sources["chain.foq"] = chain_program(30)
    rng = random.Random(8)
    chunks = []
    for name, text in sources.items():
        for mutant in token_mutants(name, text, rng):
            try:
                parse_program(mutant, name)
                chunks.append("ok")
            except ParseError as error:
                chunks.append(str(error))
    assert digest(chunks) == (
        "694f5bec56dd07abf2791bbc25bec28a76dc98de039413532a8d5800ecf17820"
    )


# Ill-formed and rejected programs, each meeting one rule of the
# tractability check, and one meeting nearly all of them at once, so the
# digest pins the diagnostic texts and their order.
REJECTED_SOURCES = [
    "decl f(p) { call g(p \\ [1]); },\ndecl f(p) { skip; },\n:: call h(q);",
    "decl f[x](p) { skip; },\ndecl g(p) { skip; },\n:: call f(q); call g[1](q);",
    "decl f[x](p) { r[1] *= NOT; p[y] *= NOT;"
    " if y > x then { call f[z](s); } else { skip; } },\n:: call f[1](q);",
    ":: q[1] *= NOT; r[1] *= NOT;",
    ":: q[x] *= NOT; call f[y](q);",
    "decl loop(p) { call loop(p); },\n:: call loop(q);",
    "decl f(p) { call g(p \\ [1]); },\ndecl g(p) { call f(p); },\n:: call f(q);",
    "decl bad(p) { if size(p) > 0 then { call bad(p \\ [1]); call bad(p \\ [1]); }"
    " else { skip; } },\n:: call bad(q);",
    "decl f(p) { call f(p); call f(p); r[x] *= NOT; call g[1](p); },\n"
    "decl f[x](p) { call h(p \\ [x]); call f[x](p \\ [1]); },\n"
    ":: q[1] *= NOT; r[k] *= NOT; call f[1](q); call nope(q);",
]


def test_rejected_program_verdicts():
    rng = random.Random(14)
    chunks = []
    for name, text in CORPUS.items():
        for mutant in (text, *token_mutants(name, text, rng, per_kind=120)):
            try:
                program = parse_program(mutant, name)
            except ParseError:
                continue
            chunks.append(check_pfoq(program).to_json())
    chunks += [check_pfoq(parse_program(src)).to_json() for src in REJECTED_SOURCES]
    assert sum('"accepted": false' in chunk for chunk in chunks) == 33
    # The last REJECTED_SOURCES program declares f twice: its verdict
    # reports the widest body (width 2) and that body's width diagnostic.
    assert digest(chunks) == (
        "08b6e8822b1c8e2cadcd1e60ae4895c5484c9d634bf6193956d5f27cf497cb1d"
    )


def _leaf(rng, lo=1):
    """A random statement that calls nothing and acts from p[lo] on."""
    k = rng.randint(lo, lo + 2)
    return rng.choice(
        [
            f"p[{k}] *= NOT;",
            f"p[{k}] *= RY[pi / {rng.randint(2, 8)}](0);",
            "skip;",
            f"qcase p[{k}] of {{ 0 -> skip; , 1 -> p[{k + 1}] *= H; }}",
        ]
    )


def _recursing_item(rng, proc, depth=0):
    """A statement of width 1 against `proc`'s group: its recursive call,
    perhaps under an `if` and nested quantum cases, one or both of whose
    branches recurse."""
    r = rng.random()
    if depth >= 2 or r < 0.35:
        return f"call {proc}(p \\ [{rng.choice([1, 1, 1, 2])}]);"
    if r < 0.55:
        return (
            f"if size(p) > {rng.randint(1, 3)} then {{ {_recursing_item(rng, proc, depth + 1)} }}"
            f" else {{ {_leaf(rng, depth + 1)} }}"
        )
    branches = [_recursing_item(rng, proc, depth + 1)]
    if rng.random() < 0.5:
        branches.append(_recursing_item(rng, proc, depth + 1))
    else:
        branches.append(_leaf(rng, depth + 2))
    rng.shuffle(branches)
    return f"qcase p[{depth + 1}] of {{ 0 -> {branches[0]} , 1 -> {branches[1]} }}"


def _recursing_body(rng, proc, tail=""):
    before = " ".join(_leaf(rng) for _ in range(rng.randint(0, 2)))
    after = " ".join(_leaf(rng) for _ in range(rng.randint(0, 2)))
    return (
        f"if size(p) > 1 then {{ {before} {_recursing_item(rng, proc)} {after} {tail} }}"
        f" else {{ {_leaf(rng)} }}"
    )


def generated_recursion_program(rng):
    """Procedure `a` recurses and calls `b`, itself recursive in its own
    group: in a leaf-free quantum case around the call, or at the end of
    its body, where `b` is controlled exactly when `a`'s instance is."""
    tail = rng.choice(["", "call b(p);", "qcase p[1] of { 0 -> call b(p \\ [1]); , 1 -> skip; }"])
    main = "call a(q);"
    if rng.random() < 0.5:
        main = f"{_leaf(rng).replace('p[', 'q[')} {main} {_leaf(rng).replace('p[', 'q[')}"
    return (
        f"decl a(p) {{ {_recursing_body(rng, 'a', tail)} }},\n"
        f"decl b(p) {{ {_recursing_body(rng, 'b')} }},\n"
        f":: {main}"
    )


def test_generated_recursion_circuits():
    # Two recursion groups whose instances get their first control at
    # different depths, or none: the order in which the compiler numbers
    # ancillas and meets errors shows in these bytes.
    rng = random.Random(19)
    chunks = []
    bottoms = 0
    for _ in range(600):
        source = generated_recursion_program(rng)
        program = parse_program(source)
        chunks.append(source)
        for n in range(2, 6):
            try:
                circuit, stats = compile_with_stats(program, n)
            except BottomError as error:
                chunks += [str(n), str(error)]
                bottoms += 1
                continue
            chunks += [str(n), export_json(circuit), json.dumps(stats, sort_keys=True)]
    assert bottoms == 920
    # The longest list first moved 64 `orthogonality_checks` values, all
    # down; every circuit and error text kept its bytes.
    assert digest(chunks) == (
        "e69a6987280e8d26a53519af376293720953796f302de7e3d89f9826bb3bbb7c"
    )


# Long generated programs on the eight qubits their generators act on.
LONG_SOURCES = {
    **{f"straight-{k}.foq": straight_program(k) for k in (100, 400, 1500)},
    **{f"chain-{k}.foq": chain_program(k) for k in (30, 150)},
}


def test_simulate_stdout(tmp_path, capsys):
    # `compile`'s circuit JSON read back by `simulate`: the bytes of both.
    requests = [(name, src, bits) for name, src in CORPUS.items() for bits in RUN_STATES]
    requests += [(name, src, "01101001") for name, src in LONG_SOURCES.items()]
    chunks = []
    for name, src, bits in requests:
        path = tmp_path / name
        path.write_text(src)
        circuit = tmp_path / "circuit.json"
        for argv in (
            ["compile", str(path), "-n", str(len(bits)), "-o", str(circuit)],
            ["simulate", str(circuit), "--state", bits],
        ):
            assert dispatch(argv) == 0
            captured = capsys.readouterr()
            chunks += [name, bits, captured.out, captured.err]
        chunks.append(circuit.read_text())
    # The longest list first swapped two commuting gates in appendix-b's
    # circuit at n = 4 and 6; every simulate output kept its bytes.
    assert digest(chunks) == (
        "0b27c132662d1180e50d791d573b3f1cfc7578f1e36543c797115862a0b888ca"
    )
