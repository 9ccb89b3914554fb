"""The exit-code contract, fuzzed: every request ends in one of the
documented codes 0-4, and no exception escapes `cli.dispatch`.

The inputs are bundled and generated programs with a few random edits,
compiled circuit JSON with one field changed, state JSON with one field
changed or replaced whole, and random bytes, often not UTF-8, in place of
any subcommand's input file.  Sizes stay small: at most 6
qubits, a step budget of at most 20 000, and circuits of at most 12 wires.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from foqc import compile_program, export_json, parse_program
from foqc.cli import dispatch
from foqc.programs import EXAMPLES

from test_fingerprint import generated_recursion_program

# Text that a random edit inserts: tokens of the grammar, and the numbers
# and names that sit at its edges.
INSERTS = [
    "call a(p);", "call b(p \\ [1]);", "call f[x](p);", "skip;", "p[1] *= H;",
    "q[7] *= NOT;", "qcase p[1] of { 0 -> skip; , 1 -> skip; }", "if size(p) > 1 then",
    "decl", "::", ";", ",", "{", "}", "(", ")", "[", "]", "\\", "*=", "->", "p", "q", "x",
    "size(p)", "0", "1", "-1", "99999999999999999999", "pi", "2^x", "RY[pi](0)", "&&", "!",
]


@st.composite
def programs(draw) -> str:
    """A bundled or generated program, with up to three random edits."""
    if draw(st.booleans()):
        source = EXAMPLES[draw(st.sampled_from(sorted(EXAMPLES)))]
    else:
        source = generated_recursion_program(random.Random(draw(st.integers(0, 2**31))))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(source)))
        j = draw(st.integers(i, min(len(source), i + 12)))
        edit = draw(st.sampled_from(["delete", "duplicate", "insert"]))
        if edit == "delete":
            source = source[:i] + source[j:]
        elif edit == "duplicate":
            source = source[:j] + source[i:j] + source[j:]
        else:
            source = source[:i] + f" {draw(st.sampled_from(INSERTS))} " + source[i:]
    return source


qubits = st.integers(-1, 6)
budgets = st.integers(0, 20_000)
bits = st.text("01", max_size=6)


@st.composite
def program_requests(draw) -> list[str]:
    """A program subcommand's argument list, `{file}` standing for the program."""
    command = draw(st.sampled_from(["check", "run", "level", "invert", "compile", "diff"]))
    argv = [command, "{file}"]
    if command == "run":
        argv += ["--state", draw(bits), "--budget", str(draw(budgets))]
    elif command == "level":
        argv += ["-n", str(draw(qubits)), "--budget", str(draw(budgets))]
    elif command == "compile":
        argv += ["-n", str(draw(qubits))] + draw(st.sampled_from([[], ["--stats"]]))
    elif command == "diff":
        argv += ["-n", str(draw(qubits)), "--seed", str(draw(st.integers(0, 3)))]
    return argv


# Circuits of at most 7 wires: a changed n or ancilla count is at most 5,
# so no circuit declares more than 12 wires.
CIRCUITS = {
    (name, n): json.loads(export_json(compile_program(parse_program(EXAMPLES[name]), n)))
    for name in sorted(EXAMPLES)
    for n in (1, 2, 4)
}
assert all(c["n"] + c["ancillas"] <= 7 for c in CIRCUITS.values())

values = st.one_of(
    st.integers(-2, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308]),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.sampled_from([[], {}, [[1, 0]], [[0.0, 0.0], [1.0, 0.0]]]),
)


@st.composite
def circuit_texts(draw) -> tuple[str, int]:
    """Compiled circuit JSON with one field changed, and its wire count n."""
    doc = json.loads(json.dumps(CIRCUITS[draw(st.sampled_from(sorted(CIRCUITS)))]))
    n = doc["n"]
    places = [(doc, key) for key in ("n", "ancillas", "gates")]
    for gate in doc["gates"]:
        places += [(gate, key) for key in gate]
        places += [(gate["controls"], i) for i in range(len(gate["controls"]))]
        places += [(pair, i) for pair in gate["controls"] for i in range(2)]
        places += [(gate["targets"], i) for i in range(len(gate["targets"]))]
        for row in gate.get("matrix", []):
            places += [(entry, i) for entry in row for i in range(2)]
    where, key = draw(st.sampled_from(places))
    where[key] = draw(values)
    return json.dumps(doc), n


def assert_contract(code: int, err: str) -> None:
    assert code in (0, 1, 2, 3, 4)
    if code >= 2:
        assert err.startswith("error:") and err.count("\n") == 1, err


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(source=programs(), argv=program_requests())
def test_every_program_request_ends_in_a_documented_code(tmp_path, capsys, source, argv):
    path = tmp_path / "program.foq"
    path.write_text(source)
    code = dispatch([arg.format(file=path) for arg in argv])
    assert_contract(code, capsys.readouterr().err)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(circuit=circuit_texts(), state=st.one_of(st.none(), bits))
def test_every_simulate_request_ends_in_a_documented_code(tmp_path, capsys, circuit, state):
    text, n = circuit
    path = tmp_path / "circuit.json"
    path.write_text(text)
    code = dispatch(["simulate", str(path), "--state", "1" * n if state is None else state])
    assert_contract(code, capsys.readouterr().err)


@st.composite
def state_texts(draw) -> tuple[str, int]:
    """A valid state JSON, a basis state or the uniform superposition, with
    one field changed or the whole document replaced, and its qubit count n."""
    n = draw(st.sampled_from([1, 2, 4]))
    if draw(st.booleans()):
        amplitudes = [[2 ** (-n / 2), 0.0] for _ in range(1 << n)]
    else:
        amplitudes = [[1.0, 0.0]] + [[0.0, 0.0] for _ in range(1, 1 << n)]
    doc = {"n": n, "amplitudes": amplitudes}
    places = [(doc, "n"), (doc, "amplitudes")]
    places += [(amplitudes, i) for i in range(len(amplitudes))]
    places += [(pair, i) for pair in amplitudes for i in range(2)]
    place = draw(st.sampled_from([None] + places))
    if place is None:
        doc = draw(values)
    else:
        where, key = place
        where[key] = draw(values)
    return json.dumps(doc), n


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(state=state_texts(), command=st.sampled_from(["run", "simulate"]))
def test_every_amplitudes_request_ends_in_a_documented_code(tmp_path, capsys, state, command):
    text, n = state
    path = tmp_path / "state.json"
    path.write_text(text)
    if command == "run":
        target = tmp_path / "qft.foq"
        target.write_text(EXAMPLES["qft.foq"])
    else:
        target = tmp_path / "qft.json"
        target.write_text(json.dumps(CIRCUITS["qft.foq", n]))
    code = dispatch([command, str(target), "--amplitudes", str(path)])
    assert_contract(code, capsys.readouterr().err)


# Valid inputs of each file kind: a program, an algebra term, a circuit and
# a state.  Random bytes are spliced into them, or stand alone.
BYTE_BASES = [
    b"",
    EXAMPLES["qft.foq"].encode(),
    b"(comp (branch i not) swap (ph pi))\n",
    json.dumps(CIRCUITS["qft.foq", 1]).encode(),
    b'{"n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}',
]

# Every subcommand, `{bytes}` standing for the file of random bytes in each
# role it can take, `{program}` and `{circuit}` for valid files.
BYTE_REQUESTS = [
    ["check", "{bytes}"],
    ["run", "{bytes}", "--state", "0", "--budget", "20000"],
    ["run", "{program}", "--amplitudes", "{bytes}"],
    ["level", "{bytes}", "-n", "2", "--budget", "20000"],
    ["invert", "{bytes}"],
    ["compile", "{bytes}", "-n", "2"],
    ["simulate", "{bytes}", "--state", "0"],
    ["simulate", "{circuit}", "--amplitudes", "{bytes}"],
    ["diff", "{bytes}", "-n", "2"],
    ["algebra", "{bytes}"],
    ["examples", "{bytes}"],
]


@st.composite
def byte_texts(draw) -> bytes:
    """Random bytes, alone or in place of a short stretch of a valid input:
    any bytes, often not UTF-8, or the UTF-8 of random text."""
    base = draw(st.sampled_from(BYTE_BASES))
    i = draw(st.integers(0, len(base)))
    j = draw(st.integers(i, min(len(base), i + 8)))
    noise = st.binary(min_size=1, max_size=24) | st.text(min_size=1, max_size=8).map(str.encode)
    return base[:i] + draw(noise) + base[j:]


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=byte_texts(), argv=st.sampled_from(BYTE_REQUESTS))
@example(data=b"\xff\xfe", argv=["check", "{bytes}"])
def test_every_request_on_random_bytes_ends_in_a_documented_code(tmp_path, capsys, data, argv):
    files = {
        "bytes": tmp_path / "input",
        "program": tmp_path / "qft.foq",
        "circuit": tmp_path / "qft.json",
    }
    files["bytes"].write_bytes(data)
    files["program"].write_text(EXAMPLES["qft.foq"])
    files["circuit"].write_text(json.dumps(CIRCUITS["qft.foq", 1]))
    code = dispatch([arg.format(**files) for arg in argv])
    err = capsys.readouterr().err
    assert_contract(code, err)
    if argv[0] != "examples" and not is_utf8(data):
        # Every other request reads the file first, so the read refuses it.
        assert code == 4 and err.startswith(f"error: cannot read {files['bytes']}: "), err


def is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


# One valid input file of each kind, and a request that reads it.
BOM_REQUESTS = {
    "program": ("qft.foq", EXAMPLES["qft.foq"], ["run", "{file}", "--state", "01"]),
    "circuit": (
        "qft.json", json.dumps(CIRCUITS["qft.foq", 2]), ["simulate", "{file}", "--state", "01"]
    ),
    "state": (
        "state.json",
        '{"n": 2, "amplitudes": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
        ["simulate", "{circuit}", "--amplitudes", "{file}"],
    ),
    "term": ("term.alg", "(comp (branch i not) swap (ph pi))\n", ["algebra", "{file}"]),
}


@pytest.mark.parametrize("kind", sorted(BOM_REQUESTS))
def test_a_utf8_file_that_starts_with_a_byte_order_mark_reads_as_without_it(
    tmp_path, capsys, kind
):
    name, text, argv = BOM_REQUESTS[kind]
    circuit = tmp_path / "qft.json"
    circuit.write_text(json.dumps(CIRCUITS["qft.foq", 2]))
    outputs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        path = tmp_path / name
        path.write_bytes(prefix + text.encode())
        code = dispatch([arg.format(file=path, circuit=circuit) for arg in argv])
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]
