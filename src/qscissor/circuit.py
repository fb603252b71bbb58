"""Linear-optical elements and Fock-space evolution.

Conventions used throughout the package:

* A mode unitary ``U`` maps input mode ``i`` to output mode ``j`` with
  single-photon amplitude ``U[j, i]`` (columns are inputs, rows outputs).
  In the Heisenberg picture creation operators transform as
  ``a_i^dag -> sum_j U[j, i] a_j^dag``.
* A beam splitter with transmittance ``eta`` is

      [[ sqrt(eta),    sqrt(1-eta)],
       [ sqrt(1-eta),  -sqrt(eta) ]]

  so ``|U00|^2 = eta``.  All herald-phase statements elsewhere in the
  package are relative to this fixed convention.
* Circuits are lists of :class:`BeamSplitter` and :class:`PhaseShift`
  elements, composed by :func:`compile_circuit`; the amplifier's mixer is
  :func:`tritter_elements`.

Evolution uses the multiphoton map of ``U``, its symmetric tensor power
(Scheel 2004, "Permanents in linear optical networks").  The map is block
diagonal in total photon number, and this module owns the one layout of
the truncated basis: :func:`fock_sectors` gives each sector's occupations in
lexicographic order, and :func:`sector_rank` the row of any occupation as a
sum of binomials.  The whole basis of totals <= T, in the same order, is
sector T of one more mode that holds the photons left over, so no index
map is kept.  :func:`sector_transfer_blocks` builds the
map one sector at a time: each sector follows from the one below by
applying the transformed creation operator once, so no permanent is
evaluated; every runtime path in the package evolves through these blocks.
They are built on each call and kept by no cache: each caller keeps what it
reuses in a table of its own, so a map lives no longer than its build.  The
blocks are read-only, so a table that keeps a view of one is read-only too.
:func:`fock_transfer_matrix` places them into a fresh dense matrix, which
:func:`apply_mode_unitary` applies to a whole sparse state.
:func:`permanent` (Ryser's formula with Gray-code subset ordering,
O(2^n n)) and :func:`fock_amplitude` stay as the single-amplitude API and
as the test oracle for the transfer matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .fock import PureState, _occupation

UNITARITY_TOL = 1e-10

TWO_PI = 2.0 * math.pi


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square matrix via Ryser's formula with Gray codes.

    The running row sums are updated by the single row that enters or
    leaves the subset at each Gray-code step.
    """
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    if n == 0:
        return 1.0 + 0.0j
    row_sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    gray = 0
    sign = 1 if n % 2 == 0 else -1  # overall (-1)^n prefactor
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        changed = gray ^ new_gray
        idx = changed.bit_length() - 1
        if new_gray & changed:
            row_sums += a[:, idx]
        else:
            row_sums -= a[:, idx]
        gray = new_gray
        parity = -1 if (new_gray.bit_count() & 1) else 1
        total += parity * np.prod(row_sums)
    return complex(sign * total)


class ModeUnitary:
    """An m x m unitary acting on mode (annihilation-operator) space."""

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"mode unitary must be square, got shape {m.shape}")
        resid = np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0])))
        if resid > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (residual {resid:.2e})")
        self.matrix = m
        self.dim = m.shape[0]

    def __matmul__(self, other: "ModeUnitary") -> "ModeUnitary":
        return ModeUnitary(self.matrix @ other.matrix)


class BeamSplitter(
    NamedTuple(
        "BeamSplitter", [("mode_a", int), ("mode_b", int), ("transmittance", float)]
    )
):
    """Two-mode splitter; ``transmittance`` is the intensity fraction kept."""

    __slots__ = ()

    def __new__(cls, mode_a: int, mode_b: int, transmittance: float):
        if not 0.0 <= transmittance <= 1.0:
            raise ValueError(f"transmittance {transmittance} outside [0, 1]")
        if mode_a == mode_b:
            raise ValueError("beam splitter needs two distinct modes")
        return super().__new__(cls, mode_a, mode_b, transmittance)

    @classmethod
    def _make(cls, iterable):  # so ``_replace`` checks too
        return cls(*iterable)


class PhaseShift(NamedTuple("PhaseShift", [("mode", int), ("angle", float)])):
    __slots__ = ()

    def __new__(cls, mode: int, angle: float):
        return super().__new__(cls, mode, angle % TWO_PI)

    @classmethod
    def _make(cls, iterable):  # so ``_replace`` reduces too
        return cls(*iterable)


CircuitElement = BeamSplitter | PhaseShift


def beam_splitter_unitary(transmittance: float) -> ModeUnitary:
    """2x2 splitter matrix in the package convention (see module docstring)."""
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance {transmittance} outside [0, 1]")
    t = math.sqrt(transmittance)
    r = math.sqrt(1.0 - transmittance)
    return ModeUnitary(np.array([[t, r], [r, -t]], dtype=complex))


def embed_unitary(u: ModeUnitary, target_modes: Sequence[int], modes: int) -> ModeUnitary:
    """Embed a small unitary so it acts on `target_modes` of a larger system."""
    target_modes = list(target_modes)
    if len(target_modes) != u.dim or len(set(target_modes)) != u.dim:
        raise ValueError("target modes must be distinct and match the unitary size")
    if any(not 0 <= m < modes for m in target_modes):
        raise ValueError("target mode index out of range")
    big = np.eye(modes, dtype=complex)
    big[np.ix_(target_modes, target_modes)] = u.matrix
    return ModeUnitary(big)


def compile_circuit(elements: Iterable[CircuitElement], modes: int) -> ModeUnitary:
    """Compose element unitaries in application order (first element first).

    Each element's local unitary (a splitter's 2x2, a phase shift's 1x1) is
    placed on its modes by :func:`embed_unitary`, which rejects any mode
    outside ``0..modes-1``.
    """
    total = np.eye(modes, dtype=complex)
    for element in elements:
        if isinstance(element, BeamSplitter):
            local = beam_splitter_unitary(element.transmittance)
            targets = (element.mode_a, element.mode_b)
        elif isinstance(element, PhaseShift):
            local = ModeUnitary([[np.exp(1j * element.angle)]])
            targets = (element.mode,)
        else:
            raise TypeError(f"unknown circuit element {element!r}")
        total = embed_unitary(local, targets, modes).matrix @ total
    return ModeUnitary(total)


def tritter_elements() -> list[CircuitElement]:
    """The amplifier's three-mode mixer: 1/2 and 1/3 splitters plus a 3pi/2 shift.

    The compiled product is ``D_out F D_in``, with F the three-mode Fourier
    interferometer, output phases (-pi/3, -2pi/3, 0) and input phases
    (0, -pi/3, pi/3).  Photon counting removes ``D_out`` up to one global
    phase per detection pattern; ``D_in`` fixes the herald phases.  The
    first two elements and the last two are the halves that the loss model
    puts its in-mixer losses between.
    """
    return [
        BeamSplitter(0, 1, 0.5),
        BeamSplitter(1, 2, 1.0 / 3.0),
        PhaseShift(0, 3.0 * math.pi / 2.0),
        BeamSplitter(0, 1, 0.5),
    ]


def _repeat_indices(occ: Sequence[int]) -> list[int]:
    idx: list[int] = []
    for mode, count in enumerate(occ):
        idx.extend([mode] * count)
    return idx


def fock_amplitude(u: ModeUnitary, n_in: Sequence[int], n_out: Sequence[int]) -> complex:
    """<n_out| U |n_in> via the permanent of the repeated-index submatrix.

    Mode unitaries conserve total photon number, so mismatched totals give
    exactly zero.
    """
    n_in, n_out = _occupation(n_in), _occupation(n_out)
    if len(n_in) != u.dim or len(n_out) != u.dim:
        raise ValueError("occupation length must match the unitary dimension")
    if sum(n_in) != sum(n_out):
        return 0.0 + 0.0j
    rows = _repeat_indices(n_out)
    cols = _repeat_indices(n_in)
    sub = u.matrix[np.ix_(rows, cols)]
    norm = math.prod(math.factorial(n) for n in n_in) * math.prod(
        math.factorial(n) for n in n_out
    )
    return permanent(sub) / math.sqrt(norm)


#: (modes, max_total) layouts kept; basis-only, so few are ever needed
_LAYOUT_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def fock_sectors(modes: int, max_total: int) -> tuple[np.ndarray, ...]:
    """Sectors 0..max_total of the ``modes``-mode basis capped at ``max_total``.

    Sector N is a read-only [rows, modes] array of the occupations with N
    photons, in lexicographic order.  A row is N stars split into modes by
    modes - 1 bars, and the rows follow ``itertools.combinations`` over the
    bars' positions; :func:`sector_rank` gives each occupation's row.
    """
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    if max_total < 0:
        raise ValueError(f"max_total must be >= 0, got {max_total}")
    slots = [total + modes - 1 for total in range(max_total + 1)]
    edges = np.array(
        [(-1, *bars, n) for n in slots for bars in itertools.combinations(range(n), modes - 1)]
    )
    basis = edges[:, 1:] - edges[:, :-1] - 1  # the stars between bars
    basis.setflags(write=False)
    ends = itertools.accumulate(math.comb(n, modes - 1) for n in slots[:-1])
    return tuple(np.split(basis, list(ends)))


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _binomials(modes: int, top: int) -> np.ndarray:
    """Read-only [modes, top + 1] table of C(r + k, k) at [k, r]."""
    table = np.array([[math.comb(r + k, k) for r in range(top + 1)] for k in range(modes)])
    table.setflags(write=False)
    return table


def sector_rank(occupations) -> np.ndarray:
    """Row of each occupation (on the last axis) in its sector of :func:`fock_sectors`.

    The occupations may have any batch shape and mixed totals.  An
    occupation with R_i photons in modes i.. follows, at mode i, the
    C(R_i + k, k) - C(R_i - n_i + k, k) occupations that hold fewer than
    its n_i photons there and agree before it, k = modes - 1 - i.  Its
    position in the whole basis of totals <= T is its rank in sector T of
    one more mode, which holds the T - N photons left over.
    """
    occupations = np.asarray(occupations)
    modes = occupations.shape[-1]
    left = np.cumsum(occupations[..., ::-1], axis=-1)[..., ::-1]  # R_i
    table = _binomials(modes, int(left[..., 0].max(initial=0)))
    k = np.arange(modes - 1, -1, -1)
    return (table[k, left] - table[k, left - occupations]).sum(axis=-1)


def _basis_positions(occupations: np.ndarray, max_total: int) -> np.ndarray:
    """Index of each occupation in the whole basis of totals <= ``max_total``."""
    left_over = max_total - occupations.sum(axis=-1, keepdims=True)
    return sector_rank(np.concatenate([occupations, left_over], axis=-1))


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _sector_steps(modes: int, max_total: int) -> tuple[tuple, ...]:
    """Index maps that build each total-photon sector N >= 1 from N - 1.

    They depend on the basis only, not on the unitary.  Indices are rows of
    :func:`fock_sectors`.  Each step is
    ``(gather, sqrt_occ, first, inv_sqrt_first)``:

    * ``sqrt_occ[o, j]`` is ``sqrt(o_j)``;
    * ``first[c]`` is the first occupied mode ``i`` of input ``c`` and
      ``inv_sqrt_first[c]`` is ``1 / sqrt(c_i)``;
    * ``gather`` indexes the sector-(N-1) block at row ``o - e_j`` (row 0
      where ``o_j = 0``, which ``sqrt_occ`` masks) and column ``c - e_i``.
    """
    sectors = fock_sectors(modes, max_total)
    occupations = np.concatenate(sectors)
    # o - e_j at [o, j]; where o_j = 0 that is o itself, masked to row 0
    lowered = np.maximum(occupations[:, None] - np.eye(modes, dtype=int), 0)
    lowers = np.where(occupations > 0, sector_rank(lowered), 0)
    ends = itertools.accumulate(map(len, sectors[:-1]))
    steps = []
    for sector, lower in zip(sectors[1:], np.split(lowers, list(ends))[1:]):
        sqrt_occ = np.sqrt(sector)
        first = np.argmax(sqrt_occ > 0, axis=1)
        cols = np.arange(len(lower))
        pred, inv_sqrt_first = lower[cols, first], 1.0 / sqrt_occ[cols, first]
        gather = (lower[:, :, None], pred)
        for a in (*gather, sqrt_occ, first, inv_sqrt_first):
            a.setflags(write=False)
        steps.append((gather, sqrt_occ, first, inv_sqrt_first))
    return tuple(steps)


def sector_transfer_blocks(u: ModeUnitary, max_total: int) -> tuple[np.ndarray, ...]:
    """Fock map of ``u`` per total photon number 0..max_total (read-only).

    Block N acts on the rows of ``fock_sectors(u.dim, max_total)[N]``, so
    ``block[sector_rank(out), sector_rank(in)]`` is ``<out| U |in>``.
    Sector 0 is ``[[1]]``; each higher sector is built from the one below by
    the creation-operator recursion
    ``U|n> = n_i^{-1/2} sum_j U[j, i] a_j^dag U|n - e_i>`` with ``i`` the
    first occupied mode of ``n``, so no permanent is evaluated; the rows of
    every ``n - e_j`` are ranked once per layout (``_sector_steps``).
    Nothing is cached: no experiment builds the same unitary twice (each
    builds 1 to 3 once, ``hom`` one per angle), and each keeps what it
    reuses in its own table (``scissor._herald_table``, ``_coincidence_row``
    and ``_pair_separation``, ``sensitivity._walk_matrix``).
    """
    blocks = [np.ones((1, 1), dtype=complex)]
    for gather, sqrt_occ, first, inv_sqrt_first in _sector_steps(u.dim, max_total):
        coeff = u.matrix[:, first] * inv_sqrt_first
        blocks.append(np.einsum("oj,jc,ojc->oc", sqrt_occ, coeff, blocks[-1][gather]))
    for block in blocks:
        block.setflags(write=False)
    return tuple(blocks)


def fock_transfer_matrix(u: ModeUnitary, max_total: int) -> np.ndarray:
    """Dense Fock-space matrix of ``u`` on the canonical truncated basis.

    The blocks of :func:`sector_transfer_blocks` placed at their basis
    positions in a fresh array; entries equal :func:`fock_amplitude` up to
    rounding.
    """
    dim = math.comb(max_total + u.dim, u.dim)  # occupations with total <= max_total
    dense = np.zeros((dim, dim), dtype=complex)
    blocks = sector_transfer_blocks(u, max_total)
    for sector, block in zip(fock_sectors(u.dim, max_total), blocks):
        positions = _basis_positions(sector, max_total)
        dense[np.ix_(positions, positions)] = block
    return dense


def apply_mode_unitary(state: PureState, u: ModeUnitary) -> PureState:
    """Evolve a pure state through an interferometer (norm preserving)."""
    if u.dim != state.modes:
        raise ValueError(
            f"unitary acts on {u.dim} modes but the state has {state.modes}"
        )
    basis = fock_sectors(state.modes + 1, state.cutoff)[-1][:, :-1]  # in order
    occupations = np.array(list(state.amplitudes), dtype=int).reshape(-1, state.modes)
    vec = np.zeros(len(basis), dtype=complex)
    vec[_basis_positions(occupations, state.cutoff)] = list(state.amplitudes.values())
    out_vec = fock_transfer_matrix(u, state.cutoff) @ vec
    kept = np.flatnonzero(np.abs(out_vec) > 0.0)
    amps = dict(zip(map(tuple, basis[kept].tolist()), out_vec[kept].tolist()))
    return PureState(state.modes, amps, cutoff=state.cutoff)

