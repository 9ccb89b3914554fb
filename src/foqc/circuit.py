"""Controlled-gate circuit representation, simulation, and serialization.

Circuits act on n input wires plus ancilla wires numbered n+1 … n+ancillas,
each created in |0>.  Every gate carries a control structure: a partial map
from wires to required bit values; the gate acts only on the basis states
satisfying all controls.  The compiler merges calls only under control
structures that are never active on the same basis state; it checks that
on their regions over the input wires (`compiler.Regions`).

Gate kinds:
  - ControlledU: a 2^m x 2^m unitary on m target wires.
  - ControlledNot: an X gate on one target wire.
  - ControlledSwap: swaps m disjoint wire pairs simultaneously.

The JSON form is canonical: fixed key order, controls sorted by wire, no
whitespace variation — identical circuits serialize to identical bytes.

Most gates of a compiled circuit repeat an earlier one, so a circuit shares
its gates: the compiler and `import_json` build one object per distinct
gate, and `Circuit` checks, `lower` lowers and `export_json` encodes each
distinct gate object once.  Every such memo lives for one call.
"""

from __future__ import annotations

import functools
import itertools
import json
import marshal
from dataclasses import dataclass

import numpy as np

from .syntax import FoqError


class CircuitError(FoqError):
    """Invalid circuit construction (conflicting controls, bad wires)."""


class CircuitSchemaError(FoqError):
    """Circuit JSON does not match the expected schema."""


def _no_bools(values, what: str) -> None:
    """Refuse True and False: as ints they pass every range check, but
    `export_json` would write them as true and false, which `import_json`
    refuses."""
    for value in values:
        if type(value) is bool:
            raise CircuitError(f"{what} must be integers, not booleans")


@dataclass(frozen=True)
class ControlStructure:
    """A partial map wire -> required bit, stored sorted by wire.

    `wires`, the frozenset of its wires, is set when it is built; being no
    field, it takes no part in equality or hashing.
    """

    bits: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        _no_bools(itertools.chain.from_iterable(self.bits), "control wires and bits")
        wires = frozenset(w for w, _ in self.bits)
        if any(w < 1 for w in wires):
            raise CircuitError("control wires are 1-based positive integers")
        if len(wires) != len(self.bits):
            raise CircuitError("duplicate wire in control structure")
        if any(b not in (0, 1) for _, b in self.bits):
            raise CircuitError("control bits must be 0 or 1")
        if list(self.bits) != sorted(self.bits):
            object.__setattr__(self, "bits", tuple(sorted(self.bits)))
        object.__setattr__(self, "wires", wires)

    @classmethod
    def empty(cls) -> "ControlStructure":
        return cls(())

    @classmethod
    def of(cls, mapping: dict[int, int]) -> "ControlStructure":
        return cls(tuple(sorted(mapping.items())))

    def get(self, wire: int) -> int | None:
        for w, b in self.bits:
            if w == wire:
                return b
        return None

    def extended(self, wire: int, bit: int) -> "ControlStructure":
        """This structure with one more pinned wire; rejects conflicts.

        The pins already held were validated when this structure was
        built, so only the new one is checked.
        """
        if wire in self.wires:
            current = self.get(wire)
            if current != bit:
                raise CircuitError(f"wire {wire} already pinned to {current}")
            return self
        _no_bools((wire, bit), "control wires and bits")
        if wire < 1:
            raise CircuitError("control wires are 1-based positive integers")
        if bit not in (0, 1):
            raise CircuitError("control bits must be 0 or 1")
        grown = object.__new__(ControlStructure)
        object.__setattr__(grown, "bits", tuple(sorted(self.bits + ((wire, bit),))))
        object.__setattr__(grown, "wires", self.wires | {wire})
        return grown


# ---------------------------------------------------------------------------
# Gates.
# ---------------------------------------------------------------------------


def _check_wires(controls: ControlStructure, targets: tuple[int, ...]) -> None:
    _no_bools(targets, "target wires")
    if any(t < 1 for t in targets):
        raise CircuitError("target wires are 1-based positive integers")
    if len(set(targets)) != len(targets):
        raise CircuitError(f"duplicate target wire in {targets}")
    if not controls.wires.isdisjoint(targets):
        overlap = sorted(controls.wires.intersection(targets))
        raise CircuitError(f"control and target wires overlap: {overlap}")


@functools.lru_cache(maxsize=256)
def _matrix_error(matrix, targets: int) -> str | None:
    """Why `matrix` is not a unitary on `targets` wires, or None if it is one.

    A program uses few distinct matrices, so the result is memoised per
    (matrix, target count) and each gate costs one lookup.
    """
    dim = 1 << targets
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (dim, dim):
        return f"matrix shape {m.shape} does not fit {targets} target wire(s)"
    if not np.isfinite(m).all():
        return "matrix entries must be finite"
    # Finite entries can still overflow the product to inf or NaN; the test
    # is negated so that a NaN deviation is refused too.
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = np.max(np.abs(m.conj().T @ m - np.eye(dim)))
    if not deviation <= 1e-9:
        return "matrix is not unitary"
    return None


@dataclass(frozen=True)
class ControlledU:
    """A 2^m x 2^m unitary on m target wires, gated by a control structure.

    The matrix is stored as a tuple of tuples of complex so gates are
    hashable and comparable; targets[0] is the most significant qubit of
    the matrix's basis ordering.
    """

    controls: ControlStructure
    targets: tuple[int, ...]
    matrix: tuple[tuple[complex, ...], ...]
    label: str | None = None

    def __post_init__(self) -> None:
        _check_wires(self.controls, self.targets)
        try:
            error = _matrix_error(self.matrix, len(self.targets))
        except TypeError:
            # An unhashable matrix cannot be memoised; check it directly.
            error = _matrix_error.__wrapped__(self.matrix, len(self.targets))
        if error is not None:
            raise CircuitError(error)

    def matrix_array(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=complex)


def controlled_u_gate(
    controls: ControlStructure,
    targets: tuple[int, ...],
    matrix: np.ndarray,
    label: str | None = None,
) -> ControlledU:
    m = np.asarray(matrix, dtype=complex)
    return ControlledU(controls, tuple(targets), tuple(map(tuple, m)), label)


@dataclass(frozen=True)
class ControlledNot:
    controls: ControlStructure
    target: int

    def __post_init__(self) -> None:
        _check_wires(self.controls, (self.target,))


@dataclass(frozen=True)
class ControlledSwap:
    """Simultaneously swap the wire pairs (left[i], right[i])."""

    controls: ControlStructure
    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.left) != len(self.right):
            raise CircuitError("swap wire lists must have equal length")
        swapped = self.left + self.right
        _check_wires(self.controls, swapped)


Gate = ControlledU | ControlledNot | ControlledSwap


def gate_wires(gate: Gate) -> frozenset[int]:
    if isinstance(gate, ControlledU):
        return gate.controls.wires | set(gate.targets)
    if isinstance(gate, ControlledNot):
        return gate.controls.wires | {gate.target}
    return gate.controls.wires | set(gate.left) | set(gate.right)


# ---------------------------------------------------------------------------
# Circuits.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Circuit:
    n: int  # input wires 1..n
    ancillas: int  # ancilla wires n+1..n+ancillas, created in |0>
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        _no_bools((self.n, self.ancillas), "wire counts n and ancillas")
        if self.n < 0 or self.ancillas < 0:
            raise CircuitError("wire counts n and ancillas must be nonnegative")
        total = self.n + self.ancillas
        # Each distinct gate object once, in order of first occurrence.
        for gate in {id(g): g for g in self.gates}.values():
            highest = max(gate_wires(gate), default=1)
            if highest > total:
                raise CircuitError(
                    f"gate touches wire {highest} but the circuit has {total} wires"
                )

    @property
    def total_wires(self) -> int:
        return self.n + self.ancillas

    def gate_count(self) -> int:
        """Gates, with a multi-pair swap counted once per swapped pair."""
        return sum(
            len(g.left) if isinstance(g, ControlledSwap) else 1 for g in self.gates
        )


def elementary_gate_count(ops) -> int:
    """Gate count of lowered ops after decomposing multi-controlled gates.

    An op with c >= 2 controls costs 2(c - 1) + 1 elementary gates (the
    standard ancilla-chain decomposition into two-control gates); one with
    at most one control costs 1.  `lower` splits swaps per pair, so this
    prices a compiled circuit (`lower(c)`) and the per-definition expansion
    the interpreter's walk records (`walk(p, n).ops`) alike.
    """
    total = 0
    for op in ops:
        controls = op[1].bit_count()
        total += 2 * controls - 1 if controls >= 2 else 1
    return total


# ---------------------------------------------------------------------------
# Routing: move the contents of src wires into dst wires by transpositions.
# ---------------------------------------------------------------------------


def routing_swaps(
    cs: ControlStructure, src: tuple[int, ...], dst: tuple[int, ...]
) -> list[ControlledSwap]:
    """Single-pair controlled swaps carrying src[i]'s content to dst[i].

    src and dst may overlap; the decomposition into transpositions tracks
    which wire currently holds each payload.  The reversed gate list undoes
    the permutation exactly.
    """
    if len(src) != len(dst):
        raise CircuitError("routing requires equally long wire lists")
    holder = {i: w for i, w in enumerate(src)}  # payload index -> current wire
    at = {w: i for i, w in enumerate(src)}  # current wire -> payload index
    gates: list[ControlledSwap] = []
    for i in range(len(src)):
        w_from, w_to = holder[i], dst[i]
        if w_from == w_to:
            continue
        gates.append(ControlledSwap(cs, (w_from,), (w_to,)))
        displaced = at.get(w_to)
        at[w_from] = displaced
        if displaced is not None:
            holder[displaced] = w_from
        else:
            del at[w_from]
        at[w_to] = i
        holder[i] = w_to
    return gates


# ---------------------------------------------------------------------------
# Simulation.
# ---------------------------------------------------------------------------

# The widest state held as a dense amplitude array: 2^26 complex amplitudes
# take 1 GiB.  Checked before any such array is allocated.  `diff` holds
# one basis column to as many sparse entries (`compiler.diff_check`).
MAX_DENSE_WIRES = 26


class WireLimitError(FoqError):
    """A state wider than the limits of this module was requested."""


def check_dense_wires(wires: int) -> None:
    if wires > MAX_DENSE_WIRES:
        raise WireLimitError(
            f"a dense state over {wires} wires exceeds the limit of {MAX_DENSE_WIRES}"
        )


def trace_ancillas(psi: np.ndarray, m: int) -> np.ndarray:
    """xi_m: sum out the trailing m wires (exact when they are unentangled)."""
    full = np.asarray(psi, dtype=complex).reshape(-1)
    return full.reshape(-1, 1 << m).sum(axis=1)


def ancilla_residue(psi: np.ndarray, m: int) -> float:
    """Probability mass with any of the trailing m wires not in |0>."""
    full = np.asarray(psi, dtype=complex).reshape(-1, 1 << m)
    total = float(np.sum(np.abs(full) ** 2))
    clean = float(np.sum(np.abs(full[:, 0]) ** 2))
    return max(0.0, total - clean)


# A lowered op is a tuple (kind, mask, want, target, data).  It acts on the
# entries whose index holds the bits `want` under `mask` (its controls, as
# one word of index bits); `target` and `data` depend on the kind:
FLIP = 0  # target: an index bit, which the op flips (NOT, cnot)
SCALE = 1  # target: an index bit; data: (value, phase) pairs, scaling the
#            entries whose target bit is `value` by `phase`
MIX = 2  # target: an index bit; data: the 2x2 entries (u00, u01, u10, u11)
SWAP = 3  # target: the shifts (a, b) of two index bits, which the op exchanges
MIX_MANY = 4  # target: index bits, most significant first; data: the matrix


def one_target_op(mask: int, want: int, bit: int, entries) -> tuple:
    """The op applying the 2x2 `entries` (u00, u01, u10, u11) to index bit `bit`."""
    u00, u01, u10, u11 = entries
    if u01 == 0 and u10 == 0:
        phases = ((0, u00),) if u00 != 1 else ()
        if u11 != 1:
            phases += ((bit, u11),)
        return (SCALE, mask, want, bit, phases)
    if u00 == 0 and u11 == 0 and u01 == 1 and u10 == 1:
        return (FLIP, mask, want, bit, None)
    return (MIX, mask, want, bit, entries)


def lower(c: Circuit) -> list[tuple]:
    """The circuit's gates as ops on indices over its n + ancillas wires.

    Each distinct gate object is lowered once; its repeats share its ops.
    """
    total = c.total_wires
    ops: list[tuple] = []
    lowered: dict[int, list[tuple]] = {}
    for gate in c.gates:
        gate_ops = lowered.get(id(gate))
        if gate_ops is None:
            gate_ops = lowered[id(gate)] = _lower_gate(gate, total)
        ops += gate_ops
    return ops


def _lower_gate(gate: Gate, total: int) -> list[tuple]:
    def bit(wire: int) -> int:
        return 1 << (total - wire)

    mask = want = 0
    for w, b in gate.controls.bits:
        mask |= bit(w)
        want |= b * bit(w)
    if isinstance(gate, ControlledNot):
        return [(FLIP, mask, want, bit(gate.target), None)]
    if isinstance(gate, ControlledSwap):
        # The pairs are disjoint, so swapping them one by one is exact.
        return [(SWAP, mask, want, (total - a, total - b), None) for a, b in zip(gate.left, gate.right)]
    if len(gate.targets) == 1:
        (u00, u01), (u10, u11) = gate.matrix
        return [one_target_op(mask, want, bit(gate.targets[0]), (u00, u01, u10, u11))]
    return [(MIX_MANY, mask, want, tuple(map(bit, gate.targets)), gate.matrix_array())]


def _combine(a0: np.ndarray, a1: np.ndarray, entries) -> None:
    """a0, a1 := a0*u00 + u01*a1, a1*u11 + u10*a0, in place and in this order."""
    u00, u01, u10, u11 = entries
    from0 = u10 * a0
    a0 *= u00
    a0 += u01 * a1
    a1 *= u11
    a1 += from0


def spread_after(op, spread: int) -> int:
    """The spread word after `op`, given the word `spread` before it.

    A spread word holds the index bits on which two entries of one column
    of a sparse state may differ, so a column holds at most 2^popcount
    entries.  A mix adds its targets.  A flip or swap adds its target bits
    when its mask meets the spread word, as it may then move some entries
    of a column and not others, or when a swapped bit is already spread.
    A scaling moves no index.
    """
    kind, mask, _, target, _ = op
    if kind == MIX:
        return spread | target
    if kind == MIX_MANY:
        return spread | sum(target)
    if kind == FLIP:
        return spread | target if mask & spread else spread
    if kind == SWAP:
        bits = (1 << target[0]) | (1 << target[1])
        return spread | bits if (mask | bits) & spread else spread
    return spread


def support_bits(ops) -> int:
    """A bound b such that `ops` take one basis column to at most 2^b entries.

    The bound holds after every prefix of `ops`.  A mix at most doubles a
    column and a many-target mix on m targets multiplies it by at most 2^m;
    and a column's entries differ only on the bits of the final spread
    word (`spread_after`).
    """
    mixes = spread = 0
    for op in ops:
        if op[0] == MIX:
            mixes += 1
        elif op[0] == MIX_MANY:
            mixes += len(op[3])
        spread = spread_after(op, spread)
    return min(mixes, spread.bit_count())


class _SparseState:
    """The non-zero amplitudes of a state, the one kernel that applies ops.

    `index[k]` is a basis-state index and `amp[k]` its amplitude; indices
    are distinct, and `ordered` says whether they are ascending.  `spread`
    is the state's spread word (`spread_after`): entries of one column
    differ only on its bits, the column being the bits above the ones the
    ops touch.  Flips and swaps rewrite indices in place and scalings
    rewrite amplitudes in place.  A one-target mix pairs each entry with
    the entry that differs from it on the target bit only, a missing
    partner counting as zero, and computes `a0*u00 + u01*a1` and
    `a1*u11 + u10*a0` elementwise; it drops the exact zeros it makes.  On
    a bit outside `spread` no entry has its partner, so the mix takes the
    growth branch: each entry becomes a pair, with no sort and no search.
    """

    def __init__(self, index: np.ndarray, amp: np.ndarray, spread: int):
        self.index = index
        self.amp = amp
        self.spread = spread
        self.ordered = bool(np.all(index[1:] > index[:-1]))

    def replay(self, ops) -> None:
        for op in ops:
            kind, mask, want, target, data = op
            if kind == FLIP:
                self._flip(mask, want, target)
            elif kind == SCALE:
                for value, phase in data:
                    hit = (self.index & (mask | target)) == want | value
                    np.multiply(self.amp, phase, out=self.amp, where=hit)
            elif kind == MIX:
                self._mix(mask, want, target, data)
            elif kind == SWAP:
                a, b = target
                diff = ((self.index >> a) ^ (self.index >> b)) & 1
                self._flip(mask, want, (diff << a) | (diff << b))
            else:
                self._mix_many(mask, want, target, data)
            self.spread = spread_after(op, self.spread)

    def _holding(self, mask: int, want: int) -> np.ndarray:
        return (self.index & mask) == want

    def _flip(self, mask: int, want: int, bits) -> None:
        if mask:
            np.bitwise_xor(self.index, bits, out=self.index, where=self._holding(mask, want))
        else:
            self.index ^= bits
        self.ordered = False

    def _mix(self, mask: int, want: int, bit: int, entries) -> None:
        sat = self._holding(mask, want) if mask else None
        if sat is not None and not np.count_nonzero(sat):
            return
        if not self.spread & bit:
            self._grow(sat, bit, entries)
            return
        if not self.ordered:
            order = np.argsort(self.index, kind="stable")
            self.index, self.amp = self.index[order], self.amp[order]
            sat = None if sat is None else sat[order]
            self.ordered = True
        index, amp = self.index, self.amp
        one = (index & bit) != 0
        if sat is None:
            zero = ~one
        else:
            one &= sat
            zero = sat ^ one
        i0, i1 = index[zero], index[one]
        if i0.shape == i1.shape and not np.count_nonzero((i0 | bit) != i1):
            # Every entry has its partner at the same rank (the index is
            # ascending): mix in place, the index unchanged.
            a0, a1 = amp[zero], amp[one]
            _combine(a0, a1, entries)
            amp[zero], amp[one] = a0, a1
            self._drop_zeros()
            return
        # Some partners are missing and count as zero.  Pair each 1-entry
        # with its 0-partner by binary search in the ascending i0, and give
        # each unpaired 1-entry a new zero 0-partner.
        j1 = i1 ^ bit
        at = np.searchsorted(i0, j1)
        paired = np.append(i0, -1)[at] == j1
        alone = ~paired
        bases = np.concatenate([i0, j1[alone]])
        rest = np.zeros(0, dtype=np.int64) if sat is None else np.flatnonzero(~sat)
        r, g = len(rest), len(bases)
        self.index = np.concatenate([index[rest], bases, bases | bit])
        self.amp = np.zeros(r + 2 * g, dtype=complex)
        self.amp[:r] = amp[rest]
        a0, a1 = self.amp[r : r + g], self.amp[r + g :]
        a0[: len(i0)] = amp[zero]
        moved = amp[one]
        a1[at[paired]] = moved[paired]
        a1[len(i0) :] = moved[alone]
        _combine(a0, a1, entries)
        self.ordered = False
        self._drop_zeros()

    def _grow(self, sat, bit: int, entries) -> None:
        """The mix on a bit that no two entries of a column differ on: the
        selected entries' indices with the bit clear, then with it set."""
        index, amp = self.index, self.amp
        if sat is not None:
            index, amp = index[sat], amp[sat]
        one = (index & bit) != 0
        a0, a1 = np.where(one, 0, amp), np.where(one, amp, 0)
        _combine(a0, a1, entries)
        indices, amps = [index & ~bit, index | bit], [a0, a1]
        if sat is not None:
            indices.insert(0, self.index[~sat])
            amps.insert(0, self.amp[~sat])
        self.index, self.amp = np.concatenate(indices), np.concatenate(amps)
        self.ordered = False
        self._drop_zeros()

    def _drop_zeros(self) -> None:
        if np.count_nonzero(self.amp) < len(self.amp):
            keep = self.amp != 0
            self.index, self.amp = self.index[keep], self.amp[keep]

    def _mix_many(self, mask: int, want: int, bits, matrix: np.ndarray) -> None:
        """Mix each group of 2^m entries that differ only on the m target bits."""
        sat = self._holding(mask, want) if mask else True
        index, amp = (self.index, self.amp) if sat is True else (self.index[sat], self.amp[sat])
        # local[k]: entry k's basis state on the targets, bits[0] being its
        # most significant bit; offsets[j]: the target bits of local j.
        local = np.zeros(index.shape, dtype=np.int64)
        offsets = [0]
        for b in bits:
            local = (local << 1) | ((index & b) != 0)
            offsets = [o | x for o in offsets for x in (0, b)]
        bases, group = np.unique(index & ~sum(bits), return_inverse=True)
        block = np.zeros((bases.shape[0], len(offsets)), dtype=complex)
        block[group, local] = amp
        mixed = (block @ matrix.T).reshape(-1)
        new_index = (bases[:, None] | np.array(offsets)).reshape(-1)
        keep = mixed != 0
        if not keep.all():
            new_index, mixed = new_index[keep], mixed[keep]
        if sat is not True:
            new_index = np.concatenate([self.index[~sat], new_index])
            mixed = np.concatenate([self.amp[~sat], mixed])
        self.index, self.amp = new_index, mixed
        self.ordered = False


def simulate_circuit(c: Circuit, psi) -> np.ndarray:
    """Run the circuit; returns the state over all n + ancillas wires.

    Accepts a QuantumState or amplitude array over either the n input
    wires (ancillas are padded in |0>) or all wires.  The simulation keeps
    only the non-zero amplitudes, so a basis input costs time in proportion
    to its support, not to 2^(n + ancillas); the dense result is built at
    the end.
    """
    check_dense_wires(c.total_wires)
    amps = np.asarray(getattr(psi, "amplitudes", psi), dtype=complex).reshape(-1)
    if amps.shape[0] == 1 << c.n:
        shift = c.ancillas
    elif amps.shape[0] == 1 << c.total_wires:
        shift = 0
    else:
        sizes = f"2^{c.n}" if not c.ancillas else f"2^{c.n} or 2^{c.total_wires}"
        raise CircuitError(f"state has {amps.shape[0]} amplitudes; expected {sizes}")
    return replay_dense(lower(c), amps, c.total_wires, shift)


def replay_dense(ops, amps: np.ndarray, wires: int, shift: int = 0) -> np.ndarray:
    """The dense state over `wires` wires after replaying `ops` on `amps`.

    Only the non-zero amplitudes are replayed; their indices are shifted
    left by `shift`, appending that many wires in |0>.
    """
    support = np.flatnonzero(amps)
    index = support << shift
    spread = int(np.bitwise_or.reduce(index ^ index[:1]))
    state = _SparseState(index, amps[support], spread)
    state.replay(ops)
    out = np.zeros(1 << wires, dtype=complex)
    out[state.index] = state.amp
    return out


# The widest index a sparse state may hold: wires plus column-tag bits fit
# a nonnegative int64.
MAX_SPARSE_BITS = 62


def check_sparse_index(wires: int, columns: int) -> None:
    """Refuse `columns` basis inputs over `wires` wires whose tagged
    indices would not fit MAX_SPARSE_BITS bits."""
    if wires + columns.bit_length() > MAX_SPARSE_BITS:
        raise WireLimitError(
            f"{wires} wires and {columns} basis inputs exceed the {MAX_SPARSE_BITS}-bit sparse index"
        )


def replay_basis(
    ops, n: int, ancillas: int, basis
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replay `ops` over n + ancillas wires on each basis input.

    Returns the summed sparse columns (keys, amps, residue).  Column j is
    the output on input basis[j] with the ancillas in |0>, then summed
    out: it holds amps[i] at row `keys[i] & (2^n - 1)` for every i with
    `keys[i] >> n == j`.  Keys are distinct and no amplitude is an
    explicit zero unless a sum cancelled.  residue[j] is column j's
    probability mass with an ancilla not in |0>.  All k inputs run as one
    sparse state: column j's entries carry j in the index bits above the
    wires, which no op touches, so no state over all wires is built.
    """
    total, k = n + ancillas, len(basis)
    check_sparse_index(total, k)
    column = np.arange(k, dtype=np.int64)
    index = (np.asarray(basis, dtype=np.int64) << ancillas) | (column << total)
    state = _SparseState(index, np.ones(k, dtype=complex), 0)
    state.replay(ops)
    keys = state.index >> ancillas
    residue = np.zeros(k)
    dirty = (state.index & ((1 << ancillas) - 1)) != 0
    if not dirty.any():  # every key holds one entry
        return keys, state.amp, residue
    np.add.at(residue, state.index[dirty] >> total, np.abs(state.amp[dirty]) ** 2)
    # Entries of one column that differ only on the ancillas add up.
    keys, group = np.unique(keys, return_inverse=True)
    amps = np.zeros(keys.shape, dtype=complex)
    np.add.at(amps, group, state.amp)
    return keys, amps, residue


# ---------------------------------------------------------------------------
# Canonical JSON serialization.
# ---------------------------------------------------------------------------


def _matrix_to_json(matrix: tuple[tuple[complex, ...], ...]) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _gate_to_json(gate: Gate) -> dict:
    controls = [[w, b] for w, b in gate.controls.bits]
    if isinstance(gate, ControlledU):
        obj = {
            "kind": "cu",
            "controls": controls,
            "targets": list(gate.targets),
            "matrix": _matrix_to_json(gate.matrix),
        }
        if gate.label is not None:
            obj["label"] = gate.label
        return obj
    if isinstance(gate, ControlledNot):
        return {"kind": "cnot", "controls": controls, "targets": [gate.target]}
    # cswap targets: left wires then right wires, two equal halves.
    return {
        "kind": "cswap",
        "controls": controls,
        "targets": list(gate.left) + list(gate.right),
    }


def export_json(c: Circuit) -> str:
    """The canonical JSON text: `json.dumps(..., sort_keys=True,
    separators=(",", ":"))` of the circuit, each distinct gate object
    encoded once."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    pieces: dict[int, str] = {}
    gates = []
    for gate in c.gates:
        piece = pieces.get(id(gate))
        if piece is None:
            piece = pieces[id(gate)] = encode(_gate_to_json(gate))
        gates.append(piece)
    # The keys in sorted order: ancillas, gates, n.
    return f'{{"ancillas":{encode(c.ancillas)},"gates":[{",".join(gates)}],"n":{encode(c.n)}}}'


def _json_ints(values, what: str) -> None:
    """Refuse any value that is not a JSON integer, such as 1.5 or true."""
    for value in values:
        if type(value) is not int:
            raise TypeError(f"{what} must be integers, got {json.dumps(value)}")


class _GateReader:
    """Builds the gates of one circuit document, each distinct one once.

    A gate object seen before returns the gate built for its first
    occurrence, and a new one reuses the control structure and the matrix
    of an earlier gate that has equal ones.  Gate objects and matrices are
    keyed by their marshalled bytes, which tell apart what `==` does not:
    0.0 from -0.0 (its sign shows in `simulate`'s zeros) and 1 from 1.0
    and true.  Only gates that were built are remembered, so a malformed
    gate raises on its first occurrence, with the error it always had.
    """

    def __init__(self) -> None:
        self.gates: dict[bytes, Gate] = {}
        self.controls: dict[tuple[tuple[int, int], ...], ControlStructure] = {}
        self.matrices: dict[bytes, tuple] = {}

    def gate(self, obj) -> Gate:
        key = marshal.dumps(obj, 2)
        gate = self.gates.get(key)
        if gate is None:
            gate = self.gates[key] = self._build(obj)
        return gate

    def _build(self, obj) -> Gate:
        try:
            kind = obj["kind"]
            pairs = tuple((w, b) for w, b in obj["controls"])
            _json_ints((v for pair in pairs for v in pair), "control wires and bits")
            controls = self.controls.get(pairs)
            if controls is None:
                controls = self.controls[pairs] = ControlStructure(pairs)
            targets = tuple(obj["targets"])
            _json_ints(targets, "target wires")
        except (KeyError, TypeError, ValueError, CircuitError) as exc:
            raise CircuitSchemaError(f"malformed gate object: {exc}") from exc
        if kind == "cnot":
            if len(targets) != 1:
                raise CircuitSchemaError("cnot takes exactly one target")
            return ControlledNot(controls, targets[0])
        if kind == "cswap":
            if len(targets) % 2:
                raise CircuitSchemaError("cswap targets must split into two equal halves")
            half = len(targets) // 2
            return ControlledSwap(controls, targets[:half], targets[half:])
        if kind == "cu":
            try:
                rows = obj["matrix"]
            except KeyError as exc:
                raise CircuitSchemaError(f"malformed cu matrix: {exc}") from exc
            gate = ControlledU(controls, targets, self._matrix(rows), obj.get("label"))
            # Checked last, so a gate that breaks an older rule too keeps its error.
            if gate.label is not None and not isinstance(gate.label, str):
                raise CircuitSchemaError(f"cu label must be a string, got {json.dumps(gate.label)}")
            return gate
        raise CircuitSchemaError(f"unknown gate kind {kind!r}")

    def _matrix(self, rows) -> tuple[tuple[complex, ...], ...]:
        key = marshal.dumps(rows, 2)
        matrix = self.matrices.get(key)
        if matrix is None:
            try:
                m = np.array([[complex(re, im) for re, im in row] for row in rows])
            except (TypeError, ValueError, OverflowError) as exc:
                raise CircuitSchemaError(f"malformed cu matrix: {exc}") from exc
            matrix = self.matrices[key] = tuple(map(tuple, np.asarray(m, dtype=complex)))
        return matrix


def import_json(text: str) -> Circuit:
    """The circuit of a JSON document; its repeated gates share one object."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitSchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or not {"n", "ancillas", "gates"} <= set(obj):
        raise CircuitSchemaError("circuit JSON needs keys n, ancillas, gates")
    if not isinstance(obj["gates"], list):
        raise CircuitSchemaError("circuit JSON 'gates' must be a list")
    try:
        gates = tuple(map(_GateReader().gate, obj["gates"]))
        _json_ints((obj["n"], obj["ancillas"]), "circuit JSON 'n' and 'ancillas'")
        return Circuit(obj["n"], obj["ancillas"], gates)
    except (CircuitError, TypeError, ValueError) as exc:
        raise CircuitSchemaError(str(exc)) from exc
