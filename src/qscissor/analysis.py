"""Physics analyses built on the amplifier simulation.

Covers the coherence-fringe interferometer (a photon pair split unevenly
into a reference arm and an amplified arm, then recombined with a scanned
phase), path-entanglement quantified by logarithmic negativity, and the
polarization Hong-Ou-Mandel curve of the mixer's internal splitters.  The
path state is held as its three coefficients on |2-k, k>, k photons in the
amplified arm, and amplified by the scissor's amplitude-array helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import beam_splitter_unitary, fock_sectors, sector_rank, sector_transfer_blocks
from .scissor import SUCCESS_PATTERNS, _amplify, _check_pattern, _coincidence_row


#: Largest phase or angle magnitude: the fringe scan takes e^{i n phase} for
#: n <= 2 photons and the wave plate cos(2 theta), so twice it must be finite.
_MAX_PHASE = 1e307


def _check_split(sigma: float) -> None:
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"{sigma} outside (0.0, 1.0)")


def _check_angle(theta: float) -> None:
    if not abs(theta) <= _MAX_PHASE:
        raise ValueError(f"{theta} outside [-{_MAX_PHASE}, {_MAX_PHASE}]")


def _check_phases(phases) -> np.ndarray:
    """A 1-d, strictly increasing phase grid as a float array."""
    phases = np.asarray(phases, dtype=float)
    # reductions and one bool array, not full-size float temporaries; min and
    # max return a NaN the grid holds, which fails the bounds
    if phases.ndim != 1 or not (
        -_MAX_PHASE <= phases.min(initial=0.0) and phases.max(initial=0.0) <= _MAX_PHASE
    ):
        span = f"[-{_MAX_PHASE}, {_MAX_PHASE}]"
        raise ValueError(f"phase grid must be 1-d, each phase in {span}")
    if np.any(phases[1:] <= phases[:-1]):
        raise ValueError("phase grid must be strictly increasing")
    return phases


def path_entangled_state(sigma: float) -> tuple[float, float, float]:
    """Photon pair split on a beam splitter with transmission ``sigma``.

    Returns the coefficients on |2-k, k> (k photons transmitted), ((1-sigma),
    sqrt(2 sigma (1-sigma)), sigma), which are already unit norm.  ``sigma``
    lies in (0, 1), so both arms can hold photons.
    """
    _check_split(sigma)
    shared = math.sqrt(2.0) * math.sqrt(sigma) * math.sqrt(1.0 - sigma)
    return 1.0 - sigma, shared, sigma


def _path_density_matrix(coefficients) -> np.ndarray:
    """Density matrix on the (mode r) x (mode t) product space, 0..2 each."""
    vec = np.zeros(9, dtype=complex)
    for k, c in enumerate(coefficients):
        vec[(2 - k) * 3 + k] = c  # index = n_r * 3 + n_t
    return np.outer(vec, vec.conj()).reshape(3, 3, 3, 3)


def log_negativity(coefficients) -> float:
    """Logarithmic negativity E_N = log2 of the partial-transpose trace norm.

    ``coefficients`` are the unit-norm path state's on |2-k, k>.  Computed by
    explicit partial transpose of the two-mode density matrix and summing
    the absolute eigenvalues.
    """
    if len(coefficients) != 3:
        raise ValueError("a two-photon path state has three coefficients")
    norm2 = sum(abs(c) ** 2 for c in coefficients)
    if abs(norm2 - 1.0) > 1e-12:
        raise ValueError(f"coefficients are not normalized (|c|^2 = {norm2})")
    rho = _path_density_matrix(coefficients)
    rho_pt = rho.transpose(0, 3, 2, 1).reshape(9, 9)  # transpose the t factor
    eigenvalues = np.linalg.eigvalsh(rho_pt)
    return float(np.log2(np.sum(np.abs(eigenvalues))))


def negativity_curve(
    sigma: float, g_grid: Sequence[float]
) -> list[tuple[float, float, float]]:
    """(g, E_N before amplification, E_N after) over a gain grid, heralded on
    (1, 1, 0): every pattern's herald phases are local and leave E_N alone."""
    path = path_entangled_state(sigma)
    before = log_negativity(path)
    return [
        (float(g), before, log_negativity(_amplify(path, g, SUCCESS_PATTERNS[0])[0]))
        for g in g_grid
    ]


def hom_coincidence(theta: float) -> float:
    """Two-fold coincidence after a half-wave-plate splitter at angle theta.

    A wave plate rotated by theta acts as a splitter with transmittance
    cos^2(2 theta); the coincidence probability of an incident photon pair
    is |<1, 1| U |1, 1>|^2, read from the splitter's two-photon sector.  It
    equals cos^2(4 theta), with the deepest interference dip at 22.5 degrees.
    """
    _check_angle(theta)
    splitter = beam_splitter_unitary(math.cos(2.0 * theta) ** 2)
    one_each = sector_rank((1, 1))
    return abs(complex(sector_transfer_blocks(splitter, 2)[2][one_each, one_each])) ** 2


@dataclass
class FringeScan:
    """Expected coincidence rate versus the scanned recombination phase."""

    phases: np.ndarray
    values: np.ndarray
    pattern: tuple

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.phases = _check_phases(self.phases)
        if self.phases.shape != self.values.shape:
            raise ValueError("phase grid and values must be equal length")
        if np.any(self.values < -1e-12):
            raise ValueError("coincidence rates must be non-negative")


def fringe_scan(
    sigma: float,
    g: float,
    pattern: Sequence[int],
    phases: Sequence[float],
) -> FringeScan:
    """Simulate the coherence interferometer end to end.

    A photon pair is split with transmission ``sigma``; the transmitted arm
    is amplified (conditioned on ``pattern``), then reference and output
    are recombined on a balanced splitter after the output arm picks up a
    variable phase.  The value at each of ``phases`` is the conditional
    probability of a coincidence across the two recombiner outputs.

    Only the |2,0> and |0,2> path components reach the coincidence outcome
    (the |1,1> part bunches), so the fringe oscillates at twice the scanned
    phase and its visibility measures the |2,0| / |0,2| balance.
    """
    # a copy, so the scan never shares the caller's array
    is_array = isinstance(phases, np.ndarray)
    phases = _check_phases(np.array(phases, dtype=float) if is_array else list(phases))

    # k = photons in the transmitted arm, which is amplified
    pattern = _check_pattern(pattern)
    amplified, _ = _amplify(path_entangled_state(sigma), g, pattern)

    # the scanned phase is diagonal in Fock space, e^{i n_1 phase}, so every
    # phase shares the fixed recombiner's coincidence row on the pair sector
    pair = fock_sectors(2, 2)[2]  # (reference, transmitted)
    vector = np.array(amplified)[pair[:, 1]]
    shifted = np.exp(1j * np.outer(phases, pair[:, 1])) * vector
    coincidence = shifted @ _coincidence_row()
    values = coincidence.real**2 + coincidence.imag**2
    return FringeScan(phases=phases, values=values, pattern=pattern)
