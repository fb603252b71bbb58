"""The quantum-scissor heralded amplifier on an N-photon resource.

The amplifier teleports a single-mode field onto the reflected arm of an
N-photon resource while multiplying every photon-number amplitude by a
programmable gain, ``c_k -> g^k c_k`` for k <= N; components above N
photons cannot satisfy the herald and are cut off.  N is the one constant
``_RESOURCE_PHOTONS``, the patterns, modes and limits follow from it, and
the amplifier shipped has N = 2.  N = 1 is the single-photon scissor of
Pegg, Phillips & Barnett (PRL 81, 1604, 1998); the N-photon form follows
Ralph & Lund (arXiv:0809.0326).  The resource |N> is split on a beam
splitter of transmittance ``eta(g)`` whose reflected arm is the output; its
transmitted arm, the input and N - 1 vacuum ports meet in an (N + 1)-mode
mixer, at N = 2 the tritter (:func:`circuit.tritter_elements`, in two
halves that the loss model in ``sensitivity`` puts its in-mixer losses
between); success is one photon on each of N of the N + 1 mixer detectors.

The herald takes the N photons the resource brings, so the heralded map is
diagonal in the signal's photon number k: N + 1 amplitudes
``<pattern, k| U |k, N, 0, ...>``, read from the circuit's Fock map once
at g = 1.  The gain only sets the splitter's t = 1/sqrt(1+g^2) and r = g t,
and the heralded branch reflects k resource photons with amplitude
sqrt(C(N,k)) t^(N-k) r^k times a g-free phase, which scales them.  Through
the Fourier mixer a pattern heralds c_k with probability (N!/(N+1)^N)
g^2k / (1+g^2)^N and adds a fixed phase per photon, which a receiver can
undo locally; the patterns' phases are spaced 2pi/(N+1).  The tritter is
the three-mode Fourier mixer up to diagonal phases, which add one phase
per pattern and one per photon shared by all, so the spacing stays.  The
pair experiments (``analysis`` and ``hom``), the counting stage (its
splitter registers a coincidence only from two photons), the 14-point loss
layout and the ``two_photon_*`` closed forms stay at two photons: each is a
choice of probe state, not a limit of the amplifier.  The runners hold the
signal's amplitudes as a plain array; ``heralded_amplify`` applies the same
table to a dict ``PureState``.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .circuit import (
    ModeUnitary,
    beam_splitter_unitary,
    compile_circuit,
    embed_unitary,
    sector_rank,
    sector_transfer_blocks,
    tritter_elements,
)
from .fock import MixedState, PureState, _check_mode, _norm

#: N, the resource's photon number; also the most photons the output can hold.
_RESOURCE_PHOTONS = 2
_SIGNAL_MODE, _RESOURCE_MODE, _OUT_MODE = 0, 1, 2


def _layout(photons: int) -> tuple:
    """(herald patterns, mixer modes, mode count) of an N-photon resource: a
    pattern fires N of the N + 1 mixer detectors, the idle one moving from last
    to first; the mixer takes the signal, the resource arm and N - 1 vacuum ports."""
    idle = reversed(range(photons + 1))
    patterns = tuple((1,) * m + (0,) + (1,) * (photons - m) for m in idle)
    mixer = (_SIGNAL_MODE, _RESOURCE_MODE, *range(_OUT_MODE + 1, photons + 2))
    return patterns, mixer, photons + 2


#: The amplifier's success patterns, mixer modes and mode count.
SUCCESS_PATTERNS, _QFT_MODES, _MODES = _layout(_RESOURCE_PHOTONS)
_KEPT = ", ".join(f"c{k}" for k in range(_RESOURCE_PHOTONS + 1))  # in messages

#: Herald probability of the resource alone (at g = 0, whatever the input).
_RESOURCE_ONLY_HERALD = (
    math.factorial(_RESOURCE_PHOTONS) / (_RESOURCE_PHOTONS + 1) ** _RESOURCE_PHOTONS
)

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


# The domain, as predicates on a float or on arrays that broadcast together
# (NaN fails every ordered comparison, so no gain or transmission range holds
# it); the scalar checks and the gain functions' grid check (``_checked_grid``)
# both read them.


def _gain_inside(g):
    """g = 0, or g in [_MIN_GAIN, _MAX_GAIN]."""
    return (g == 0.0) | ((_MIN_GAIN <= g) & (g <= _MAX_GAIN))


def _transmission_inside(tau):
    """tau in [_MIN_TAU, 1]."""
    return (_MIN_TAU <= tau) & (tau <= 1.0)


def _herald_terms(tau, g) -> tuple:
    """(g != 0, tau != 1): the lossy two-photon input heralds at (tau, g) where
    either holds, since g = 0 keeps only the vacuum, which tau = 1 never holds.
    A grid of every tau with every g heralds where one holds on its whole axis."""
    return g != 0.0, tau != 1.0


def _check_gain(g: float) -> None:
    if not _gain_inside(g):
        if 0.0 < g < _MIN_GAIN:
            raise ValueError(f"{g} is below the smallest nonzero gain {_MIN_GAIN}")
        raise ValueError(f"{g} outside [0.0, {_MAX_GAIN}]")


def _check_transmission(tau: float) -> None:
    if not _transmission_inside(tau):
        if 0.0 < tau <= 1.0:
            raise ValueError(f"{tau} outside [{_MIN_TAU}, 1.0]")
        raise ValueError(f"{tau} outside (0.0, 1.0]")


def _check_mixture_heralds(taus, gains) -> None:
    """The lossy two-photon input heralds at every tau of ``taus`` and g of
    ``gains``, two collections (a whole grid, or one value in a tuple)."""
    terms = _herald_terms(np.asarray(taus, dtype=float), np.asarray(gains, dtype=float))
    if not any(term.all() for term in terms):
        raise ValueError("g = 0 keeps only the vacuum, which tau = 1 never holds")


def _check_pattern(pattern: Sequence[int]) -> tuple:
    """The success pattern as a tuple of ints; raises for any other pattern.
    Membership compares numerically: 1.0 and numpy integers pass, 1.5, NaN
    and inf fail."""
    p = tuple(pattern)
    if p not in SUCCESS_PATTERNS:
        raise ValueError(f"{p} is not a success pattern {SUCCESS_PATTERNS}")
    return tuple(map(int, p))


def _resource_splitter(modes: int) -> ModeUnitary:
    """The g = 1 gain splitter on (resource, output) of ``modes`` modes."""
    splitter = beam_splitter_unitary(0.5)
    return embed_unitary(splitter, (_RESOURCE_MODE, _OUT_MODE), modes)


def _mixer_halves() -> tuple[ModeUnitary, ModeUnitary]:
    """The tritter's two element halves on the mixer modes."""
    elements = tritter_elements()
    return tuple(
        embed_unitary(compile_circuit(half, len(_QFT_MODES)), _QFT_MODES, _MODES)
        for half in (elements[:2], elements[2:])
    )


def _each(f, values: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` floats ``f(x)`` returns for each value x, taken as a
    Python float or complex, as ``width`` stacked arrays of the values' shape:
    Python's powers and roots, which numpy's vectorized ones can differ from
    in the last bit, once per value of an axis of a grid."""
    items = map(f, values.ravel().tolist())
    table = np.fromiter(items, dtype=np.dtype((float, (width,))), count=values.size)
    return table.T.reshape(width, *values.shape)


def _splitter_scale(g: float) -> float:
    """sqrt(2) t = sqrt(2) / hypot(1, g): the gain splitter's transmission at
    gain g over its value at g = 1, finite for every finite g."""
    return math.sqrt(2.0) / math.hypot(1.0, g)


def _gain_factor(g, transmitted, reflected, scale=None):
    """(sqrt(2) t)^transmitted (sqrt(2) r)^reflected: a splitter term's amplitude
    at gain g over its amplitude at g = 1 (0**0 = 1 keeps g = 0 exact).  A
    float g takes its ``_splitter_scale`` here; an array of gains, which
    broadcasts against the class arrays, comes with its ``scale`` array."""
    scale = _splitter_scale(g) if scale is None else scale
    return scale**transmitted * (g * scale) ** reflected


def _herald_amplitudes(photons: int, mixer: Sequence[ModeUnitary]) -> Mapping:
    """{pattern: ``<pattern, k| U |k, N, 0, ...>`` at g = 1, k = 0..N} (read-only)
    for N = ``photons``: ``U`` is the g = 1 gain splitter, then each part of
    ``mixer`` (on all N + 2 modes) in turn; the output holds the k photons."""
    patterns, mixer_modes, modes = _layout(photons)
    u = functools.reduce(operator.matmul, reversed(mixer)) @ _resource_splitter(modes)
    blocks = sector_transfer_blocks(u, 2 * photons)[photons:]  # k + N photons
    # [0, k] is the start |k, N, 0, ...>, [1 + p, k] what pattern p heralds
    occupations = np.zeros((len(patterns) + 1, photons + 1, modes), dtype=int)
    k = np.arange(photons + 1)
    occupations[0, :, _SIGNAL_MODE], occupations[0, :, _RESOURCE_MODE] = k, photons
    occupations[1:, :, list(mixer_modes)] = np.array(patterns)[:, None]
    occupations[1:, :, _OUT_MODE] = k
    start, *heralded = sector_rank(occupations)
    table = {}
    for pattern, rows in zip(patterns, heralded):
        amplitudes = table[pattern] = np.array(
            [block[row, col] for block, row, col in zip(blocks, rows, start)]
        )
        amplitudes.setflags(write=False)
    return MappingProxyType(table)


@functools.lru_cache(maxsize=None)
def _herald_table() -> Mapping:
    """The amplifier's ``_herald_amplitudes``: N = 2 through the tritter halves."""
    return _herald_amplitudes(_RESOURCE_PHOTONS, _mixer_halves())


def _herald_gains(pattern: tuple, g: float, scale=None) -> np.ndarray:
    """The herald amplitudes ``<pattern, k| U |k, N, 0, ...>`` at gain g, k = 0..N
    (on a last axis, for a column of gains and scales: ``_gain_factor``)."""
    k = np.arange(_RESOURCE_PHOTONS + 1)
    return _herald_table()[pattern] * _gain_factor(g, _RESOURCE_PHOTONS - k, k, scale)


def heralded_amplify(
    state: PureState, signal_mode: int, g: float, pattern: Sequence[int]
) -> tuple[PureState, float]:
    """Run the amplifier on one mode of a pure state.

    Returns the *unnormalized* conditional state (the signal mode replaced in
    place by the amplifier output mode) and the herald probability.  Input
    components with more than N photons in the signal mode can never
    produce an N-photon herald, so they only dilute the success
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
    return conditional, _norm(conditional.amplitudes.values()) ** 2


def _amplify(amplitudes, g: float, pattern: tuple) -> tuple[list[complex], float]:
    """(normalized output amplitudes on k = 0..N, herald probability) of the
    signal photon-number amplitudes ``amplitudes`` (c_0, c_1, ...).

    Each c_k with k <= N is scaled by its herald amplitude, with the scalar
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
    if not any(values[: _RESOURCE_PHOTONS + 1]):
        raise ValueError(f"{_KEPT} are all zero: nothing can be heralded")
    if not _MIN_COEFF <= size <= 1 / _MIN_COEFF:
        raise ValueError(f"max |c| = {size} outside [{_MIN_COEFF}, {1 / _MIN_COEFF}]")
    return values


def _check_herald_weight(amplitudes, g: float) -> None:
    """Checked input amplitudes herald at gain g (see ``_MIN_COEFF``)."""
    if g == 0.0 and amplitudes[0] == 0:
        raise ValueError("g = 0 keeps only c0, which input_coeffs sets to zero")
    size = max(map(abs, amplitudes))
    kept = amplitudes[: _RESOURCE_PHOTONS + 1]
    weight = max(abs(c) / size * g**k for k, c in enumerate(kept))
    if weight * 2.0 / (1.0 + g * g) < _MIN_COEFF:
        raise ValueError(f"{_KEPT} too small to herald at g = {g}")


@dataclass
class ScissorOutcome:
    """Post-herald output of the amplifier, conditioned on one pattern."""

    output: np.ndarray  # normalized amplitudes on |0>, ..., |N>
    success_probability: float
    pattern: tuple
    truncation_weight: float


def run_two_scissor(amplitudes, g: float, pattern: Sequence[int]) -> ScissorOutcome:
    """Full circuit simulation of the amplifier on a single-mode pure input.

    ``amplitudes`` holds the input's photon-number amplitudes c_0, c_1, ...,
    at most ``MAX_INPUT_CUTOFF + 1`` of them; they are normalized first.
    ``success_probability`` is the raw herald-pattern probability;
    ``truncation_weight`` reports how much input probability sat above N
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
        truncation_weight=sum((abs(c) ** 2 for c in state[_RESOURCE_PHOTONS + 1 :]), 0.0),
    )


# ---------------------------------------------------------------------------
# closed forms for the lossy two-photon input
# ---------------------------------------------------------------------------
#
# These and the gain measurement take tau and g as scalars or as arrays that
# broadcast together.  Each power, root and norm runs on Python floats, once
# per tau value or g value (``_each``), and only the per-point + - * / are
# array operations, in the scalar arithmetic's order: every point of a grid
# has the bits of the call on its two scalars.


def _checked_grid(tau, g, gain_read: bool, check) -> tuple[np.ndarray, np.ndarray]:
    """``tau`` and ``g`` as float arrays, checked at every point of their
    broadcast grid.  Where a point is outside the domain of
    ``_check_transmission`` (and, if ``gain_read``, of ``_check_gain`` and
    ``_check_mixture_heralds``), ``check(tau, g)``, the scalar call's checks,
    runs at the first such point in C order and raises its ``ValueError``."""
    tau, g = np.asarray(tau, dtype=float), np.asarray(g, dtype=float)
    inside = _transmission_inside(tau)
    if gain_read:
        inside = inside & _gain_inside(g) & np.logical_or(*_herald_terms(tau, g))
    if not inside.all():
        shape = np.broadcast(tau, g).shape
        first = int(np.argmin(np.broadcast_to(inside, shape)))
        check(*(np.broadcast_to(a, shape).flat[first].item() for a in (tau, g)))
    return tau, g


def _scalar_or_array(x):
    """A 0-d result as the Python float that a call on scalars returns."""
    return float(x) if np.ndim(x) == 0 else x


def _check_closed_form(tau: float, g: float) -> None:
    _check_transmission(tau)
    _check_gain(g)
    _check_mixture_heralds((tau,), (g,))


def amplified_mixture_closed_form(tau, g) -> tuple[np.ndarray, float | np.ndarray]:
    """Heralded output of the amplifier on the lossy two-photon mixture.

    Returns the normalized weights on (|0>, |1>, |2>) and the normalization
    constant N = 1 / [(1-tau)^2 + 2 g^2 tau (1-tau) + g^4 tau^2]; the
    two-photon intensity gain is N g^4.  ``tau`` and ``g`` are scalars or
    arrays that broadcast together: the weights then take a last axis of
    three, and N the broadcast shape.
    """
    tau, g = _checked_grid(tau, g, True, _check_closed_form)
    loss, lost2, kept2 = _each(lambda t: (1 - t, (1 - t) ** 2, t**2), tau, 3)
    twice_g2, g4 = _each(lambda x: (2 * x**2, x**4), g, 2)
    raw = lost2, twice_g2 * tau * loss, g4 * kept2
    normalization = 1.0 / ((raw[0] + raw[1]) + raw[2])  # ndarray.sum's order
    weights = np.stack([r * normalization for r in raw], axis=-1)
    return weights, _scalar_or_array(normalization)


def two_photon_gain(tau, g) -> float | np.ndarray:
    """Two-photon intensity gain N g^4 of the heralded amplifier, at scalar
    or broadcast ``tau`` and ``g``.

    Monotone non-decreasing in g and saturating at 1 / tau^2 because of the
    output normalization.
    """
    _, normalization = amplified_mixture_closed_form(tau, g)
    (g4,) = _each(lambda x: (x**4,), np.asarray(g, dtype=float), 1)
    return _scalar_or_array(normalization * g4)


# ---------------------------------------------------------------------------
# photon-counting gain measurement model
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _coincidence_row() -> np.ndarray:
    """``<1, 1|`` of the balanced splitter on the rows of ``fock_sectors(2, 2)[2]``
    (read-only): the counting stage's and the fringe recombiner's pair row."""
    pair = sector_transfer_blocks(beam_splitter_unitary(0.5), 2)[2]
    return pair[sector_rank((1, 1))]


@functools.lru_cache(maxsize=None)
def _pair_separation() -> float:
    """|<1, 1| B |2, 0>|^2 of the counting stage's balanced splitter B."""
    return abs(_coincidence_row()[sector_rank((2, 0))]) ** 2


def pnr_coincidence_probability(state: MixedState | PureState) -> float:
    """Coincidence probability of the probabilistic photon-number stage.

    The single-mode state is split on a balanced splitter onto two click
    detectors.  Only |2, 0> reaches the (1, 1) outcome, so the probability
    is that splitter amplitude squared (one half) times the two-photon weight.
    """
    if isinstance(state, PureState):
        state = MixedState([(1.0, state)])
    if state.modes != 1:
        raise ValueError("the counting stage takes a single-mode state")
    weights = (w * abs(s.amplitudes.get((2,), 0.0)) ** 2 for w, s in state.components)
    return _pair_separation() * sum(weights)


@dataclass
class GainMeasurement:
    """Expected counting rates for one amplifier configuration."""

    herald_probability: float | np.ndarray
    fourfold_probability: float | np.ndarray
    rho22_estimate: float | np.ndarray


def simulate_gain_measurement(
    tau, g, with_amplifier: bool, pattern: Sequence[int]
) -> GainMeasurement:
    """Expected coincidence rates of the intensity-gain measurement.

    The input, |2> after loss tau, has photon-number weights ((1-tau)^2,
    2 tau (1-tau), tau^2).  With the amplifier on, it is amplified and the
    output mode is counted; four-fold rates normalized by the herald rate
    estimate the output two-photon population.  With it off, the input goes
    straight to the counting stage while the resource alone still fires the
    heralds, with the closed-form probability N!/(N+1)^N; they carry no
    information about the input and cancel from the normalized estimate.
    ``tau`` and ``g`` are scalars or arrays that broadcast together, and each
    rate takes their broadcast shape.
    """

    def check(t: float, x: float) -> None:  # the scalar call's checks, in order
        _check_transmission(t)
        _check_pattern(pattern)
        if with_amplifier:
            _check_mixture_heralds((t,), (x,))
            _check_gain(x)

    tau, g = _checked_grid(tau, g, with_amplifier, check)
    pattern = _check_pattern(pattern)
    weights = _each(lambda t: ((1 - t) ** 2, 2 * t * (1 - t), t**2), tau, 3)
    if with_amplifier:

        def heralded(a: complex) -> tuple:
            """(|a|^2, |a / |a||^2): the herald probability of a component that
            ``heralded_amplify`` scales by a, and the weight its normalized
            output keeps (0 if it never heralds), with the dict-state
            mixture's norm (``dict_run_two_scissor`` in the test oracles)."""
            norm = _norm((a,))
            return norm**2, abs(a / norm) ** 2 if norm**2 > 0.0 else 0.0

        (scale,) = _each(lambda x: (_splitter_scale(x),), g[..., None], 1)
        amplitudes = np.moveaxis(_herald_gains(pattern, g[..., None], scale), -1, 0)
        probabilities, kept = zip(*(_each(heralded, a, 2) for a in amplitudes))
        # the mixture's sums, in its order: a component of weight 0, which the
        # mixture drops, adds +0.0 here, so its total weight is this sum too
        herald = sum(w * p for w, p in zip(weights, probabilities))
        w, p = weights[_RESOURCE_PHOTONS], probabilities[_RESOURCE_PHOTONS]
        two_photon = w * p / herald * kept[_RESOURCE_PHOTONS]
    else:
        # the input is diverted to the counting stage and never interferes
        shape = np.broadcast(tau, g).shape
        herald = np.full(shape, _RESOURCE_ONLY_HERALD)
        two_photon = np.broadcast_to(weights[_RESOURCE_PHOTONS], shape)
    fourfold = herald * (_pair_separation() * two_photon)
    rates = herald, fourfold, 2.0 * fourfold / herald
    return GainMeasurement(*map(_scalar_or_array, rates))


def measured_two_photon_gain(tau, g, pattern: Sequence[int]) -> float | np.ndarray:
    """Gain estimate from the counting model: on/off ratio of rho_22, at
    scalar or broadcast ``tau`` and ``g``."""
    on = simulate_gain_measurement(tau, g, with_amplifier=True, pattern=pattern)
    off = simulate_gain_measurement(tau, g, with_amplifier=False, pattern=pattern)
    return on.rho22_estimate / off.rho22_estimate
