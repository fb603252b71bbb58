"""The two-photon quantum-scissor heralded amplifier.

The amplifier teleports a single-mode field onto the reflected arm of a
two-photon resource state while multiplying every photon-number amplitude
by a programmable gain: ``c_k -> g^k c_k`` for k = 0, 1, 2 (components above
two photons cannot satisfy the herald and are cut off).  The circuit, on
modes signal 0, resource 1, output 2 and vacuum port 3, is

* resource |2> split on a beam splitter with transmittance ``eta(g)``;
  the reflected arm becomes the output mode,
* transmitted arm, the input field, and the vacuum port mixed in the
  tritter (:func:`circuit.tritter_elements`: 1/2 and 1/3 splitters and a
  3pi/2 shift, in two halves that the loss model in ``sensitivity`` puts
  its in-mixer losses between),
* success heralded by detecting exactly two photons across the three
  interferometer outputs in one of the patterns (1,1,0), (1,0,1), (0,1,1).

The resource brings two photons and the herald takes two, so the heralded
map is diagonal in the signal's photon number k and leaves every other mode
alone: three amplitudes ``<pattern, k| U |k, 2, 0, 0>`` read from the
circuit's Fock map.  The gain only sets the splitter's t = 1/sqrt(1+g^2)
and r = g t, and the heralded branch has k resource photons reflected, of
amplitude sqrt(C(2,k)) t^(2-k) r^k times a g-free phase; so the amplitudes
are read once per pattern at g = 1 and scaled by g^k 2/(1+g^2).  Each
success pattern imprints a fixed extra phase per photon-number step (0,
2pi/3 or 4pi/3) that a receiver can undo locally; the tritter equals the
three-mode Fourier interferometer up to diagonal phases, which shift each
pattern's amplitudes by one global phase and leave these steps alone.
The counting stage's balanced splitter registers a coincidence only from
two photons, so its probability is the two-photon weight times one fixed
factor.  The runners hold the signal's photon-number amplitudes as a plain
array; ``heralded_amplify`` applies the same table to a dict ``PureState``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import (
    ModeUnitary,
    beam_splitter_unitary,
    compile_circuit,
    embed_unitary,
    fock_sectors,
    sector_transfer_blocks,
    tritter_elements,
)
from .fock import MixedState, PureState, _check_mode, _norm

#: Herald patterns that flag a successful two-photon amplification.
SUCCESS_PATTERNS = ((1, 1, 0), (1, 0, 1), (0, 1, 1))

#: The amplifier's mode layout.  The gain splitter couples the resource to
#: the output; the mixer and its herald detectors take the signal, the
#: resource's transmitted arm and the vacuum port, in that order.
_SIGNAL_MODE, _RESOURCE_MODE, _OUT_MODE = 0, 1, 2
_QFT_MODES = (_SIGNAL_MODE, _RESOURCE_MODE, 3)
_MODES = max(*_QFT_MODES, _OUT_MODE) + 1
_RESOURCE_PHOTONS = 2  # also the most photons the output can hold

#: Herald probability of the resource alone.  With the amplifier off
#: (g = 0) both resource photons enter the mixer and leave on any two
#: distinct ports with amplitude of modulus sqrt(2) / 3, whatever the input
#: does.
_RESOURCE_ONLY_HERALD = 2.0 / 9.0

#: Largest input-state cutoff the full simulation accepts.
MAX_INPUT_CUTOFF = 4


#: Value limits, well inside where the arithmetic breaks.  The closed forms
#: take g^4, which overflows above g = 1.2e77, and the gain model squares
#: tau, which turns subnormal below tau = 1.5e-154.
_MAX_GAIN = 1e6
_MIN_TAU = 1e-100
#: Smallest nonzero gain: the heralded two-photon weight goes as g^4 tau^2,
#: and (1e-25)^4 (1e-100)^2 = 1e-300 stays a normal float at the smallest tau.
_MIN_GAIN = 1e-25
#: Input floor.  ``run_two_scissor`` divides c by |c| = sqrt(sum |c_k|^2), so
#: max |c| in [1e-150, 1e150] keeps |c|^2 a finite normal float.  At gain g
#: c_k heralds with amplitude c_k / |c| 2 g^k / (1 + g^2) times a mixer
#: amplitude of modulus 1/sqrt(18), and |c| <= sqrt(5) max |c|; so a weight
#: max_{k <= 2} |c_k| g^k 2 / (1 + g^2) / max |c| >= 1e-150 keeps the herald
#: probability above 1e-300 / 90, a normal float.
_MIN_COEFF = 1e-150


def _check_gain(g: float) -> None:
    if not 0.0 <= g <= _MAX_GAIN:
        raise ValueError(f"{g} outside [0.0, {_MAX_GAIN}]")
    if 0.0 < g < _MIN_GAIN:
        raise ValueError(f"{g} is below the smallest nonzero gain {_MIN_GAIN}")


def _check_transmission(tau: float) -> None:
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"{tau} outside (0.0, 1.0]")
    if tau < _MIN_TAU:
        raise ValueError(f"{tau} outside [{_MIN_TAU}, 1.0]")


def _check_mixture_heralds(taus, gains) -> None:
    """The lossy two-photon input heralds at every tau of ``taus`` and g of
    ``gains``, two collections (a whole grid, or one value in a tuple)."""
    if 0.0 in gains and 1.0 in taus:
        raise ValueError("g = 0 keeps only the vacuum, which tau = 1 never holds")


def _check_pattern(pattern: Sequence[int]) -> tuple:
    """The success pattern as a tuple of ints; raises for any other pattern.

    Membership compares numerically, so 1.0 and numpy integers pass while
    1.5, NaN and inf fail.
    """
    p = tuple(pattern)
    if p not in SUCCESS_PATTERNS:
        raise ValueError(f"{p} is not a success pattern {SUCCESS_PATTERNS}")
    return tuple(map(int, p))


def _resource_splitter() -> ModeUnitary:
    """The g = 1 gain splitter on (resource, output) of the amplifier's modes."""
    splitter = beam_splitter_unitary(0.5)
    return embed_unitary(splitter, (_RESOURCE_MODE, _OUT_MODE), _MODES)


@functools.lru_cache(maxsize=None)
def _mixer_halves() -> tuple[ModeUnitary, ModeUnitary]:
    """The tritter's two element halves on the mixer modes, shared (read-only)."""
    elements = tritter_elements()
    halves = tuple(
        embed_unitary(compile_circuit(half, len(_QFT_MODES)), _QFT_MODES, _MODES)
        for half in (elements[:2], elements[2:])
    )
    for half in halves:
        half.matrix.setflags(write=False)
    return halves


def _gain_factor(g: float, transmitted, reflected):
    """(sqrt(2) t)^transmitted (sqrt(2) r)^reflected: a splitter term's amplitude
    at gain g over its amplitude at g = 1 (0**0 = 1 keeps g = 0 exact)."""
    scale = math.sqrt(2.0) / math.hypot(1.0, g)  # finite for every finite g
    return scale**transmitted * (g * scale) ** reflected


@functools.lru_cache(maxsize=None)  # keyed on the three success patterns
def _herald_amplitudes(pattern: tuple) -> np.ndarray:
    """``<pattern, k| U |k, 2, 0, 0>`` at g = 1 for k = 0, 1, 2 (read-only).

    ``U`` is the mixer after the g = 1 gain splitter; ``pattern`` is read on
    the mixer modes while the output holds the k photons.
    """
    first, second = _mixer_halves()
    u = second @ first @ _resource_splitter()
    blocks = sector_transfer_blocks(u, 2 * _RESOURCE_PHOTONS)
    sectors = fock_sectors(_MODES, 2 * _RESOURCE_PHOTONS)
    amplitudes = np.empty(_RESOURCE_PHOTONS + 1, dtype=complex)
    for k in range(_RESOURCE_PHOTONS + 1):
        start, heralded = np.zeros((2, _MODES), dtype=int)
        start[[_SIGNAL_MODE, _RESOURCE_MODE]] = k, _RESOURCE_PHOTONS
        heralded[list(_QFT_MODES)], heralded[_OUT_MODE] = pattern, k
        index = sectors[k + _RESOURCE_PHOTONS].index
        row, col = index[tuple(heralded.tolist())], index[tuple(start.tolist())]
        amplitudes[k] = blocks[k + _RESOURCE_PHOTONS][row, col]
    amplitudes.setflags(write=False)
    return amplitudes


def _herald_gains(pattern: tuple, g: float) -> np.ndarray:
    """The herald amplitudes ``<pattern, k| U |k, 2, 0, 0>`` at gain g, k = 0, 1, 2."""
    k = np.arange(_RESOURCE_PHOTONS + 1)
    return _herald_amplitudes(pattern) * _gain_factor(g, _RESOURCE_PHOTONS - k, k)


def heralded_amplify(
    state: PureState, signal_mode: int, g: float, pattern: Sequence[int]
) -> tuple[PureState, float]:
    """Run the amplifier on one mode of a pure state.

    Returns the *unnormalized* conditional state (the signal mode replaced in
    place by the amplifier output mode) and the herald probability.  Input
    components with more than two photons in the signal mode can never
    produce a two-photon herald, so they only dilute the success
    probability.
    """
    pattern = _check_pattern(pattern)
    _check_mode(signal_mode, state.modes)
    _check_gain(g)
    gains = _herald_gains(pattern, g)
    amps = {
        occ: gains[occ[signal_mode]] * amp
        for occ, amp in state.amplitudes.items()
        if occ[signal_mode] <= _RESOURCE_PHOTONS
    }
    conditional = PureState(state.modes, amps, cutoff=state.cutoff)
    return conditional, conditional.norm() ** 2


def _amplify(amplitudes, g: float, pattern: tuple) -> tuple[list[complex], float]:
    """(normalized output amplitudes on k = 0, 1, 2, herald probability) of the
    signal photon-number amplitudes ``amplitudes`` (c_0, c_1, ...).

    Each c_k with k <= 2 is scaled by its herald amplitude, with the scalar
    arithmetic, norm and division of ``heralded_amplify`` and a normalization,
    so the results are their bits.  ``pattern`` must be checked already and
    the amplitudes must herald at g (``_check_herald_weight``).
    """
    _check_gain(g)
    gains = _herald_gains(pattern, g)
    kept = [complex(gain * c) for gain, c in zip(gains, amplitudes)]
    kept += [0j] * (len(gains) - len(kept))
    norm = _norm(kept)
    return [a / norm for a in kept], norm**2


def _check_amplitudes(amplitudes) -> list[complex]:
    """The input's photon-number amplitudes c_0, c_1, ... as Python complexes."""
    array = np.asarray(amplitudes, dtype=complex)
    if array.ndim != 1 or not 1 <= array.size <= MAX_INPUT_CUTOFF + 1:
        raise ValueError(
            f"the input takes 1 to {MAX_INPUT_CUTOFF + 1} photon-number amplitudes "
            f"(cutoff {MAX_INPUT_CUTOFF}), got an array of shape {array.shape}"
        )
    values = array.tolist()
    if not all(map(cmath.isfinite, values)):
        raise ValueError(f"the input amplitudes must be finite, got {values}")
    size = max(map(abs, values))
    if size == 0.0:
        raise ValueError("cannot normalize the zero state")
    if not any(values[:3]):
        raise ValueError("c0, c1, c2 are all zero: nothing can be heralded")
    if not _MIN_COEFF <= size <= 1 / _MIN_COEFF:
        raise ValueError(f"max |c| = {size} outside [{_MIN_COEFF}, {1 / _MIN_COEFF}]")
    return values


def _check_herald_weight(amplitudes, g: float) -> None:
    """Checked input amplitudes herald at gain g (see ``_MIN_COEFF``)."""
    if g == 0.0 and amplitudes[0] == 0:
        raise ValueError("g = 0 keeps only c0, which input_coeffs sets to zero")
    size = max(map(abs, amplitudes))
    weight = max(abs(c) / size * g**k for k, c in enumerate(amplitudes[:3]))
    if weight * 2.0 / (1.0 + g * g) < _MIN_COEFF:
        raise ValueError(f"c0, c1, c2 too small to herald at g = {g}")


@dataclass
class ScissorOutcome:
    """Post-herald output of the amplifier, conditioned on one pattern."""

    output: np.ndarray  # normalized amplitudes on |0>, |1>, |2>
    success_probability: float
    pattern: tuple
    truncation_weight: float


def run_two_scissor(amplitudes, g: float, pattern: Sequence[int]) -> ScissorOutcome:
    """Full circuit simulation of the amplifier on a single-mode pure input.

    ``amplitudes`` holds the input's photon-number amplitudes c_0, c_1, ...,
    at most ``MAX_INPUT_CUTOFF + 1`` of them; they are normalized first.
    ``success_probability`` is the raw herald-pattern probability;
    ``truncation_weight`` reports how much input probability sat above two
    photons and therefore could not be heralded.
    """
    amplitudes = _check_amplitudes(amplitudes)
    pattern = _check_pattern(pattern)
    _check_gain(g)
    _check_herald_weight(amplitudes, g)
    norm = _norm(amplitudes)
    state = [c / norm for c in amplitudes]
    output, success_probability = _amplify(state, g, pattern)
    return ScissorOutcome(
        output=np.array(output),
        success_probability=success_probability,
        pattern=pattern,
        truncation_weight=sum((abs(c) ** 2 for c in state[3:]), 0.0),
    )


# ---------------------------------------------------------------------------
# closed forms for the lossy two-photon input
# ---------------------------------------------------------------------------


def amplified_mixture_closed_form(tau: float, g: float) -> tuple[np.ndarray, float]:
    """Heralded output of the amplifier on the lossy two-photon mixture.

    Returns the normalized weights on (|0>, |1>, |2>) and the normalization
    constant N = 1 / [(1-tau)^2 + 2 g^2 tau (1-tau) + g^4 tau^2]; the
    two-photon intensity gain is N g^4.
    """
    _check_transmission(tau)
    _check_gain(g)
    _check_mixture_heralds((tau,), (g,))
    raw = np.array([(1 - tau) ** 2, 2 * g**2 * tau * (1 - tau), g**4 * tau**2])
    normalization = 1.0 / raw.sum()
    return raw * normalization, normalization


def two_photon_gain(tau: float, g: float) -> float:
    """Two-photon intensity gain N g^4 of the heralded amplifier.

    Monotone non-decreasing in g and saturating at 1 / tau^2 because of the
    output normalization.
    """
    _, normalization = amplified_mixture_closed_form(tau, g)
    return normalization * g**4


# ---------------------------------------------------------------------------
# photon-counting gain measurement model
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _coincidence_row() -> np.ndarray:
    """``<1, 1|`` of the balanced splitter on the rows of ``fock_sectors(2, 2)[2]``
    (read-only): the counting stage's and the fringe recombiner's pair row."""
    pair = sector_transfer_blocks(beam_splitter_unitary(0.5), 2)[2]
    return pair[fock_sectors(2, 2)[2].index[(1, 1)]]


@functools.lru_cache(maxsize=None)
def _pair_separation() -> float:
    """|<1, 1| B |2, 0>|^2 of the counting stage's balanced splitter B."""
    return abs(_coincidence_row()[fock_sectors(2, 2)[2].index[(2, 0)]]) ** 2


def pnr_coincidence_probability(state: MixedState | PureState) -> float:
    """Coincidence probability of the probabilistic photon-number stage.

    The single-mode state is split on a balanced splitter onto two click
    detectors.  Only |2, 0> reaches the (1, 1) outcome, so the probability
    is that splitter amplitude squared (one half) times the two-photon weight.
    """
    if isinstance(state, PureState):
        state = MixedState.from_pure(state)
    if state.modes != 1:
        raise ValueError("the counting stage takes a single-mode state")
    weights = (w * abs(s.amplitudes.get((2,), 0.0)) ** 2 for w, s in state.components)
    return _pair_separation() * sum(weights)


@dataclass
class GainMeasurement:
    """Expected counting rates for one amplifier configuration."""

    herald_probability: float
    fourfold_probability: float
    rho22_estimate: float


def _amplified_two_photon(weights, g: float, pattern: tuple) -> tuple[float, float]:
    """(herald probability, output two-photon weight) of the amplifier on the
    mixture of |0>, |1>, |2> with ``weights``: each component through
    ``heralded_amplify``, in order, with the dict-state mixture's norms and
    sums (``dict_run_two_scissor`` in the test oracles).  The mixture must
    herald at g (``_check_mixture_heralds``)."""
    _check_gain(g)
    gains = _herald_gains(pattern, g)
    # (n, weight * p, |a / norm|^2) of each component that heralds
    herald, heralded = 0.0, []
    for n, weight in enumerate(weights):
        if not weight > 0.0:  # a mixture drops its empty components
            continue
        a = complex(gains[n])
        norm = _norm((a,))
        p = norm**2
        herald += weight * p
        if p > 0.0:
            heralded.append((n, weight * p, abs(a / norm) ** 2))
    total = sum(w for _, w, _ in heralded)
    return herald, sum(w / total * q for n, w, q in heralded if n == 2)


def simulate_gain_measurement(
    tau: float, g: float, with_amplifier: bool, pattern: Sequence[int]
) -> GainMeasurement:
    """Expected coincidence rates of the intensity-gain measurement.

    The input, |2> after loss tau, has photon-number weights ((1-tau)^2,
    2 tau (1-tau), tau^2).  With the amplifier on, it is amplified and the
    output mode is counted; four-fold rates normalized by the herald rate
    estimate the output two-photon population.  With the amplifier off the
    input goes straight to the counting stage while the resource alone
    (full transmittance, no interference) still fires the heralds, so the
    same conditioning applies but the heralds carry no information about
    the input and cancel from the normalized estimate; their probability is
    the closed form 2/9.
    """
    _check_transmission(tau)
    pattern = _check_pattern(pattern)
    weights = ((1 - tau) ** 2, 2 * tau * (1 - tau), tau**2)
    if with_amplifier:
        _check_mixture_heralds((tau,), (g,))
        herald, two_photon = _amplified_two_photon(weights, g, pattern)
    else:
        # the input is diverted to the counting stage and never interferes
        herald, two_photon = _RESOURCE_ONLY_HERALD, weights[2]
    fourfold = herald * (_pair_separation() * two_photon)
    return GainMeasurement(
        herald_probability=herald,
        fourfold_probability=fourfold,
        rho22_estimate=2.0 * fourfold / herald,
    )


def measured_two_photon_gain(tau: float, g: float, pattern: Sequence[int]) -> float:
    """Gain estimate from the counting model: on/off ratio of rho_22."""
    on = simulate_gain_measurement(tau, g, with_amplifier=True, pattern=pattern)
    off = simulate_gain_measurement(tau, g, with_amplifier=False, pattern=pattern)
    return on.rho22_estimate / off.rho22_estimate
