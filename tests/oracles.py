"""Reference implementations the tests check the package against.

None of these run in the package.  The recursive basis enumeration is the
reference order that ``circuit.fock_sectors`` and ``circuit.sector_rank``
compute arithmetically.  The closed forms are the amplifier's
ideal transform c_k -> g^k c_k, its herald phases, its gain setting and
the amplified path state; the Fock states, the basis size, a state's
norm, normalization, amplitudes, dense vector and one-component mixture,
the dict-state scissor run, the lossy two-photon input and the
gain measurement on them are the dict-state path that the amplitude-array
runners and the weights-only measurement reproduce bit for bit; the lossy
two-photon closed form on Python floats is the reference the array closed
forms reproduce bit for bit; the state
overlaps, the mixture trace and density matrix and the fringe
fit are the definitions the package's results are checked against.  The
three-mode Fourier interferometer is the textbook form of the amplifier's
mixer (the package builds the tritter, which equals it up to diagonal
phases), and on N + 1 modes it is the mixer of the N-photon amplifier the
tests build at other N; the dict loss channel is the Kraus-operator definition the Sobol
engine's batched loss walk reproduces, and the per-branch walk is that loss
walk one Kraus branch at a time on the dense Fock basis, which the engine
composes into a single matrix product.  They build on the circuit and state
primitives only, never on the Sobol engine's own code.  The Schmidt
shortcut is the pure-state closed form of the path state's log-negativity,
the check on its partial transpose.  The serial bootstrap is the Sobol
estimator's blocked bootstrap pass with every draw and matmul on one
thread, the reference its helper-thread draws reproduce bit for bit.  The
row writer formats and writes one CSV row at a time, the reference for the
CLI's blocked column writer, and takes its rows from columns whose indexed
pairs are written out in full.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from qscissor.analysis import path_entangled_state
from qscissor.circuit import (
    BeamSplitter,
    ModeUnitary,
    PhaseShift,
    apply_mode_unitary,
    beam_splitter_unitary,
    compile_circuit,
    embed_unitary,
    fock_transfer_matrix,
)
from qscissor.fock import (
    MixedState,
    PureState,
    _check_mode,
    _norm,
    _occupation,
    project_pattern,
    tensor,
)
from qscissor.scissor import (
    _RESOURCE_ONLY_HERALD,
    _RESOURCE_PHOTONS,
    MAX_INPUT_CUTOFF,
    SUCCESS_PATTERNS,
    GainMeasurement,
    ScissorOutcome,
    _check_gain,
    _check_pattern,
    heralded_amplify,
    pnr_coincidence_probability,
)

#: The error of an input that no component heralds, by whether a nonzero
#: conditional state had probability 0.0.
_UNHERALDED = (
    "herald pattern has zero probability for this input; the conditional "
    "output state is undefined",
    "herald probability underflows to 0.0 for this input; the conditional "
    "output state is nonzero but cannot be weighted",
)

def basis_enumerate(modes: int, max_total: int) -> list[tuple]:
    """Enumerate all occupation vectors with total photons <= max_total.

    The order is lexicographic and therefore deterministic; it is the index
    convention of every dense-matrix export in the package.
    """
    return list(_basis_layout(modes, max_total)[0])


@functools.lru_cache(maxsize=32)
def _basis_layout(
    modes: int, max_total: int
) -> tuple[tuple[tuple, ...], Mapping[tuple, int]]:
    """The :func:`basis_enumerate` basis and its occupation -> index map."""
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    if max_total < 0:
        raise ValueError(f"max_total must be >= 0, got {max_total}")

    def _build(remaining_modes: int, budget: int) -> Iterator[tuple]:
        if remaining_modes == 1:
            for n in range(budget + 1):
                yield (n,)
            return
        for n in range(budget + 1):
            for tail in _build(remaining_modes - 1, budget - n):
                yield (n,) + tail

    basis = tuple(_build(modes, max_total))
    return basis, MappingProxyType({occ: i for i, occ in enumerate(basis)})


#: The amplifier's four modes hold at most four photons: the input's and
#: the resource's two each.
_MODES = _PHOTONS = 4
_BASIS = basis_enumerate(_MODES, _PHOTONS)
_OCCUPATIONS = np.array(_BASIS)
_INDEX = {occ: i for i, occ in enumerate(_BASIS)}


def basis_dimension(modes: int, max_total: int) -> int:
    """Number of occupation vectors on `modes` modes with total <= max_total."""
    return math.comb(max_total + modes, modes)


def fock_state(occ, cutoff: int | None = None) -> PureState:
    """Basis state |occ> with amplitude 1; the cutoff is at least four photons."""
    occ = _occupation(occ)
    if cutoff is None:
        cutoff = max(_PHOTONS, sum(occ))
    return PureState(len(occ), {occ: 1.0}, cutoff=cutoff)


def vacuum(modes: int, cutoff: int = _PHOTONS) -> PureState:
    return PureState(modes, {(0,) * modes: 1.0}, cutoff=cutoff)


def from_pure(state: PureState) -> MixedState:
    """The one-component mixture of ``state``."""
    return MixedState([(1.0, state)])


def norm(state: PureState) -> float:
    """sqrt(sum |a|^2) of ``state``'s amplitudes, by ``fock._norm``."""
    return _norm(state.amplitudes.values())


def to_vector(state: PureState) -> np.ndarray:
    """Dense amplitude vector over ``basis_enumerate(modes, cutoff)``, in
    that canonical (lexicographic) order."""
    basis, index = _basis_layout(state.modes, state.cutoff)
    vec = np.zeros(len(basis), dtype=complex)
    for occ, amp in state.amplitudes.items():
        vec[index[occ]] = amp
    return vec


def normalized(state: PureState) -> PureState:
    """The unit-norm version of ``state``."""
    n = norm(state)
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    return PureState(
        state.modes,
        {occ: a / n for occ, a in state.amplitudes.items()},
        cutoff=state.cutoff,
    )


def amplitude(state: PureState, occ) -> complex:
    return state.amplitudes.get(state._key(occ), 0.0 + 0.0j)


def total_photon_weight(state: PureState, min_total: int) -> float:
    """Probability weight carried by components with >= min_total photons."""
    return sum(
        abs(a) ** 2 for occ, a in state.amplitudes.items() if sum(occ) >= min_total
    )


def dict_run_two_scissor(
    input_state: MixedState | PureState, g: float, pattern=(1, 1, 0)
) -> ScissorOutcome:
    """``run_two_scissor`` on dict states: a single-mode pure state or
    mixture, each component through ``heralded_amplify``.  The output is the
    normalized heralded mixture; for a pure input whose amplitudes are
    ``run_two_scissor``'s normalized input, every result is its bits."""
    if isinstance(input_state, PureState):
        input_state = from_pure(input_state)
    if input_state.modes != 1:
        raise ValueError("the amplifier acts on a single-mode input")
    if input_state.cutoff > MAX_INPUT_CUTOFF:
        raise ValueError(
            f"input cutoff {input_state.cutoff} exceeds the supported maximum "
            f"{MAX_INPUT_CUTOFF}; truncate the state first"
        )
    pattern = _check_pattern(pattern)
    components: list[tuple[float, PureState]] = []
    success_probability = 0.0
    truncation_weight = 0.0
    underflows = False  # a nonzero conditional state whose probability is 0.0
    for weight, pure in input_state.components:
        truncation_weight += weight * total_photon_weight(pure, 3)
        conditional, p = heralded_amplify(pure, 0, g, pattern)
        success_probability += weight * p
        if p > 0.0:
            components.append((weight * p, normalized(conditional)))
        elif conditional.amplitudes:
            underflows = True
    if not components:
        raise ValueError(_UNHERALDED[underflows])
    total = sum(w for w, _ in components)
    output = MixedState([(w / total, s) for w, s in components])
    return ScissorOutcome(
        output=output,
        success_probability=success_probability,
        pattern=pattern,
        truncation_weight=truncation_weight,
    )


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b> over the shared occupation basis."""
    if a.modes != b.modes:
        raise ValueError(f"mode mismatch: {a.modes} vs {b.modes}")
    return sum(np.conj(x) * b.amplitudes.get(occ, 0.0) for occ, x in a.amplitudes.items())


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 for normalized a, b."""
    return abs(inner_product(a, b)) ** 2


def mixture_trace(mix: MixedState) -> float:
    return sum(w * norm(s) ** 2 for w, s in mix.components)


def density_matrix(mix: MixedState) -> np.ndarray:
    """Dense density matrix over ``basis_enumerate(modes, cutoff)``."""
    dim = basis_dimension(mix.modes, mix.cutoff)
    rho = np.zeros((dim, dim), dtype=complex)
    for w, s in mix.components:
        vec = to_vector(s)
        rho += w * np.outer(vec, vec.conj())
    return rho


def photon_number_weights(mix: MixedState, mode: int, max_n: int | None = None) -> np.ndarray:
    """Diagonal photon-number distribution of one mode (modes traced out)."""
    _check_mode(mode, mix.modes)
    if max_n is None:
        max_n = mix.cutoff
    weights = np.zeros(max_n + 1)
    for w, s in mix.components:
        for occ, amp in s.amplitudes.items():
            if occ[mode] <= max_n:
                weights[occ[mode]] += w * abs(amp) ** 2
    return weights


def lossy_two_photon_input(tau: float) -> MixedState:
    """|2> degraded by a channel with intensity transmission tau.

    The result is the photon-number mixture with weights
    ((1-tau)^2, 2 tau (1-tau), tau^2) on |0>, |1>, |2>.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"transmission {tau} outside [0, 1]")
    weights = [(1 - tau) ** 2, 2 * tau * (1 - tau), tau**2]
    components = [
        (w, fock_state((n,), cutoff=2)) for n, w in enumerate(weights) if w > 0.0
    ]
    return MixedState(components)


def dict_gain_measurement(
    tau: float, g: float, with_amplifier: bool, pattern=(1, 1, 0)
) -> GainMeasurement:
    """``simulate_gain_measurement`` through the dict states: the lossy input
    as a mixture of Fock states, amplified by ``dict_run_two_scissor`` and counted
    by ``pnr_coincidence_probability``."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {tau}")
    pattern = _check_pattern(pattern)
    input_mixture = lossy_two_photon_input(tau)
    if with_amplifier:
        outcome = dict_run_two_scissor(input_mixture, g, pattern)
        herald = outcome.success_probability
        coincidence = pnr_coincidence_probability(outcome.output)
    else:
        herald = _RESOURCE_ONLY_HERALD
        coincidence = pnr_coincidence_probability(input_mixture)
    fourfold = herald * coincidence
    return GainMeasurement(herald, fourfold, 2.0 * fourfold / herald)


def closed_form_mixture(tau: float, g: float) -> tuple[np.ndarray, float, float]:
    """The lossy two-photon closed form at one (tau, g), on Python floats: the
    normalized weights on (|0>, |1>, |2>), N and the gain N g^4.  The three
    raw weights are Python floats, summed by ``ndarray.sum``; the package's
    closed forms price a grid of points to these bits."""
    raw = np.array([(1 - tau) ** 2, 2 * g**2 * tau * (1 - tau), g**4 * tau**2])
    normalization = 1.0 / raw.sum()
    return raw * normalization, normalization, normalization * g**4


def gain_to_transmittance(g: float) -> float:
    """Splitter transmittance eta = 1 / (1 + g^2) that programs gain g."""
    _check_gain(g)
    return 1.0 / (1.0 + g * g)


def herald_phase(pattern) -> float:
    """Phase acquired per photon-number step for a given success pattern."""
    index = SUCCESS_PATTERNS.index(_check_pattern(pattern))
    return 2.0 * math.pi * index / len(SUCCESS_PATTERNS)


def ideal_scissor_transform(coefficients, g: float) -> np.ndarray:
    """Closed-form amplifier action: keep c_0, ..., c_N and scale c_k by g^k.

    Returns the renormalized length-(N + 1) vector; raises if nothing survives.
    """
    _check_gain(g)
    size = _RESOURCE_PHOTONS + 1
    kept = np.zeros(size, dtype=complex)
    kept[: len(coefficients[:size])] = coefficients[:size]
    kept *= np.array([g**k for k in range(size)])  # 0^0 = 1: g = 0 keeps c_0
    length = np.linalg.norm(kept)
    if length == 0.0:
        raise ValueError("input has no support on the retained photon numbers")
    return kept / length


@dataclass
class VisibilityFit:
    visibility: float
    offset: float
    amplitude: float
    mean: float
    degenerate: bool = False


def fit_visibility(scan, wavenumber: int = 2) -> VisibilityFit:
    """Least-squares fit of a * cos(k phi + offset) + m, k = ``wavenumber``
    (a two-photon fringe oscillates at twice the phase).

    Visibility is a / m clipped to [0, 1]; a constant scan is degenerate.
    """
    phases, values, k = scan.phases, scan.values, wavenumber
    if len(phases) < 4:
        raise ValueError("need at least 4 points to fit a fringe")
    if (phases[-1] - phases[0]) * k < 2.0 * np.pi - 1e-9:
        raise ValueError("phase grid must span at least one fringe period")
    design = np.column_stack([phases**0, np.cos(k * phases), np.sin(k * phases)])
    (mean, a_cos, a_sin), *_ = np.linalg.lstsq(design, values, rcond=None)
    amplitude = math.hypot(a_cos, a_sin)
    if amplitude < 1e-12 * max(abs(mean), float(np.max(np.abs(values))), 1e-300):
        return VisibilityFit(0.0, 0.0, 0.0, float(mean), degenerate=True)
    offset = math.atan2(-a_sin, a_cos) % (2.0 * math.pi)
    visibility = float(np.clip(amplitude / mean, 0.0, 1.0)) if mean > 0 else 0.0
    return VisibilityFit(visibility, offset, float(amplitude), float(mean))


def qft_unitary(m: int) -> ModeUnitary:
    """Discrete Fourier interferometer: U_jk = omega^{jk} / sqrt(m)."""
    if m < 1:
        raise ValueError(f"mode count must be >= 1, got {m}")
    j, k = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    omega = np.exp(2j * np.pi / m)
    return ModeUnitary(omega ** (j * k) / np.sqrt(m))


def fourier_mixer(photons: int) -> ModeUnitary:
    """The (N + 1)-mode Fourier interferometer on the mixer modes of an
    N-photon amplifier, N = ``photons``: signal 0, resource arm 1 and the
    vacuum ports 3, ..., N + 1 of its N + 2 modes (the output is mode 2)."""
    mixer_modes = (0, 1, *range(3, photons + 2))
    return embed_unitary(qft_unitary(photons + 1), mixer_modes, photons + 2)


@dataclass(frozen=True)
class Loss:
    """Pure-loss element on one mode; applied by :func:`apply_loss`."""

    mode: int
    transmission: float

    def __post_init__(self):
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError(f"transmission {self.transmission} outside [0, 1]")


def loss_kraus_factors(n: int, k: int, transmission: float) -> float:
    """Amplitude factor of the k-photon-loss Kraus operator acting on |n>."""
    if k > n:
        return 0.0
    return math.sqrt(
        math.comb(n, k) * transmission ** (n - k) * (1.0 - transmission) ** k
    )


def _apply_loss_pure(state: PureState, mode: int, transmission: float):
    """Kraus branches of the pure-loss channel on one mode of a pure state."""
    max_n = max((occ[mode] for occ in state.amplitudes), default=0)
    for k in range(max_n + 1):
        amps: dict[tuple, complex] = {}
        for occ, amp in state.amplitudes.items():
            n = occ[mode]
            factor = loss_kraus_factors(n, k, transmission)
            if factor != 0.0:
                lowered = occ[:mode] + (n - k,) + occ[mode + 1 :]
                amps[lowered] = amps.get(lowered, 0.0) + amp * factor
        branch = PureState(state.modes, amps, cutoff=state.cutoff)
        weight = norm(branch) ** 2
        if weight > 0.0:
            yield weight, normalized(branch)


def apply_loss(
    state: MixedState | PureState, mode: int, transmission: float
) -> MixedState:
    """Single-mode pure-loss channel with intensity transmission ``transmission``.

    Kraus operators map |n> -> sqrt(C(n,k) tau^{n-k} (1-tau)^k) |n-k>; the
    channel is trace preserving and composing two losses multiplies their
    transmissions.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission {transmission} outside [0, 1]")
    if isinstance(state, PureState):
        state = from_pure(state)
    if not 0 <= mode < state.modes:
        raise ValueError(f"mode {mode} out of range for {state.modes} modes")
    components: list[tuple[float, PureState]] = []
    for weight, pure in state.components:
        for branch_weight, branch in _apply_loss_pure(pure, mode, transmission):
            components.append((weight * branch_weight, branch))
    return MixedState(components)


def full_circuit_amplify(state, signal_mode, g, pattern, mixer, splitter_phase=0.0):
    """Reference amplifier: the whole (modes + 3)-mode Fock evolution.

    The resource |2, 0, 0> is appended as (resource, output, vacuum port),
    evolved with the state through the gain splitter (phase
    ``splitter_phase``) and the three-mode ``mixer`` on (signal, resource,
    vacuum port), the herald modes are projected out and the output is
    moved back to the signal mode's slot.  Returns the conditional
    amplitudes and the herald probability.
    """
    total = state.modes + 3
    res, out, aux = state.modes, state.modes + 1, state.modes + 2
    # [[t, r e^{i phase}], [r e^{-i phase}, -t]]: the package's splitter
    # between phase shifts of the output port
    turn = np.diag([1.0, np.exp(1j * splitter_phase)])
    phased = turn.conj() @ beam_splitter_unitary(gain_to_transmittance(g)).matrix @ turn
    splitter = embed_unitary(ModeUnitary(phased), (res, out), total)
    mixing = embed_unitary(mixer, (signal_mode, res, aux), total)
    extended = tensor(state, fock_state((2, 0, 0), cutoff=2))
    evolved = apply_mode_unitary(extended, mixing @ splitter)
    residual, probability = project_pattern(evolved, (signal_mode, res, aux), pattern)
    p = signal_mode
    amps = {
        occ[:p] + (occ[-1],) + occ[p:-1]: amp
        for occ, amp in residual.amplitudes.items()
    }
    return amps, probability


def gain_splitter(g: float) -> ModeUnitary:
    """The gain-g splitter on (resource, output) of the amplifier's modes
    (signal, resource, output, vacuum port), from its amplitudes, which stay
    exact at any small g (sqrt(1 - 1 / (1 + g^2)) cancels)."""
    c, s = 1.0 / math.hypot(1.0, g), g / math.hypot(1.0, g)
    return embed_unitary(ModeUnitary([[c, s], [s, -c]]), (1, 2), _MODES)


def mixer_halves() -> tuple[ModeUnitary, ModeUnitary]:
    """The tritter's two halves on (signal, resource, vacuum port) of the
    amplifier's modes; the in-mixer losses sit between them."""
    return (
        compile_circuit(
            [BeamSplitter(0, 1, 0.5), BeamSplitter(1, 3, 1.0 / 3.0)], _MODES
        ),
        compile_circuit(
            [PhaseShift(0, 3.0 * math.pi / 2.0), BeamSplitter(0, 1, 0.5)], _MODES
        ),
    )


def _loss_step(mode: int, transmission: np.ndarray) -> tuple:
    """A pure loss on ``mode`` with a per-sample ``transmission``: the mode
    and its Kraus factors, [k lost, n held, samples]."""
    photons = range(_PHOTONS + 1)
    factors = [
        [[loss_kraus_factors(n, k, t) for t in transmission] for n in photons]
        for k in photons
    ]
    return mode, np.array(factors)


def _kraus_branches(amplitudes: np.ndarray, steps: list):
    """Every Kraus branch of ``steps`` applied to dense [basis, starts,
    samples] ``amplitudes``: a mode unitary acts through its Fock transfer
    matrix, a loss step yields one branch per number of photons the mode
    can lose."""
    if not steps:
        yield amplitudes
        return
    step, rest = steps[0], steps[1:]
    if isinstance(step, ModeUnitary):
        transfer = fock_transfer_matrix(step, _PHOTONS)
        yield from _kraus_branches(np.tensordot(transfer, amplitudes, 1), rest)
        return
    mode, factors = step
    n = _OCCUPATIONS[:, mode]
    most = n[amplitudes.any(axis=(1, 2))].max(initial=0)  # photons it can lose
    for k in range(most + 1):
        held = n >= k  # the Kraus operator maps |n> to |n - k> on the mode
        lowered = _OCCUPATIONS[held]
        lowered[:, mode] -= k
        branch = np.zeros_like(amplitudes)
        branch[[_INDEX[tuple(occ)] for occ in lowered.tolist()]] = (
            amplitudes[held] * factors[k, n[held], None]
        )
        yield from _kraus_branches(branch, rest)


def branch_walk(pattern, g, t_anc, t_internal):
    """Reference Kraus-branch walk on the dense 70-state basis.

    Each |a, b, 0, 0> start (a, b = 0..2) crosses the gain-g splitter, the
    resource-arm loss ``t_anc``, the first mixer half, the losses
    ``t_internal`` on the mixer modes (0, 1, 3) and the second half, one
    Kraus branch of each loss at a time, and the branches' |amplitude|^2 add
    up.  Returns, per photon number, the [9 starts, rows, samples] sums on
    the rows with at least ``pattern[m]`` photons at each mixer mode m, in
    basis order; start a * 3 + b.
    """
    starts = list(itertools.product(range(3), repeat=2))
    amplitudes = np.zeros((len(_BASIS), len(starts), t_anc.shape[0]), dtype=complex)
    for s, (a, b) in enumerate(starts):
        amplitudes[_INDEX[a, b, 0, 0], s] = 1.0
    first, second = mixer_halves()
    steps = [gain_splitter(g), _loss_step(1, t_anc), first]
    steps += [_loss_step(m, t) for m, t in zip((0, 1, 3), t_internal)]
    heralded = np.zeros(amplitudes.shape)
    for branch in _kraus_branches(amplitudes, steps + [second]):
        heralded += branch.real**2 + branch.imag**2
    heraldable = np.all(_OCCUPATIONS[:, [0, 1, 3]] >= pattern, axis=1)
    totals = _OCCUPATIONS.sum(axis=1)
    return [
        heralded[heraldable & (totals == total)].transpose(1, 0, 2)
        for total in range(_PHOTONS + 1)
    ]


@dataclass(frozen=True)
class QutritPathState:
    """Two-photon path state: coefficients on (|2,0>, |1,1>, |0,2>)."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if len(coeffs) != 3:
            raise ValueError("a two-photon path state has three coefficients")
        norm2 = sum(abs(c) ** 2 for c in coeffs)
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError(f"coefficients are not normalized (|c|^2 = {norm2})")
        object.__setattr__(self, "coefficients", coeffs)


def amplified_path_state(sigma: float, g: float) -> QutritPathState:
    """Path state after amplifying the transmitted arm with gain ``g``.

    The transmitted-arm photon number k picks up g^k, so the state becomes
    balanced (maximally entangled) exactly when g^2 = (1 - sigma) / sigma.
    """
    base = path_entangled_state(sigma)
    _check_gain(g)
    raw = np.array([base[k] * g**k for k in range(3)], dtype=complex)
    return QutritPathState(tuple(raw / np.linalg.norm(raw)))


def hom_closed_form(theta: float) -> float:
    """Two-fold coincidence of a photon pair on a wave-plate splitter of
    transmittance cos^2(2 theta): |sin^2(2 theta) - cos^2(2 theta)|^2, i.e.
    cos^2(4 theta)."""
    s = math.sin(2.0 * theta) ** 2
    c = math.cos(2.0 * theta) ** 2
    return abs(s - c) ** 2


def log_negativity_schmidt(coefficients) -> float:
    """Pure-state shortcut: E_N = log2((sum of Schmidt coefficients)^2).

    The path state is already Schmidt-diagonal in the photon-number basis,
    so the Schmidt coefficients are just the coefficient magnitudes.
    """
    return float(2.0 * np.log2(sum(abs(c) for c in coefficients)))


def serial_bootstrap_ci(designs, seed: int, resamples: int, block_bytes: int) -> list:
    """The 95% half-width of each design's first-order indices by the
    paired bootstrap, on one thread: each design [f(A); f(B); f(A_B^1); ...]
    gives per-row statistics [n_base, 2 dims + 2], built as the estimator
    builds them, and every block of ``block_bytes // (8 n_base)`` resamples
    draws its float64 counts, then takes one matmul per design."""
    estimates = []
    for design in designs:
        f_a, f_b, f_hyb = design[0], design[1], design[2:]
        dims = f_hyb.shape[0]
        stats = np.empty((2 * dims + 2, design.shape[1]))
        diff = np.subtract(f_hyb, f_a[None, :], out=stats[dims : 2 * dims])
        np.multiply(f_b[None, :], diff, out=stats[:dims])
        design.sum(axis=0, out=stats[2 * dims])
        (design**2).sum(axis=0, out=stats[2 * dims + 1])
        estimates.append(stats.T)
    n_base = estimates[0].shape[0]
    rng = np.random.default_rng([int(seed), 0xB00])
    total = (dims + 2) * n_base
    block = max(1, block_bytes // (8 * n_base))
    boots = [np.zeros((resamples, dims)) for _ in estimates]
    buffer = np.empty((min(block, resamples), n_base))
    for start in range(0, resamples, block):
        counts = buffer[: min(block, resamples - start)]
        for row in counts:
            draw = rng.integers(0, n_base, size=n_base)
            row[:] = np.bincount(draw, minlength=n_base)
        for stats, boot in zip(estimates, boots):
            sums = counts @ stats
            mean_r = sums[:, 2 * dims] / total
            mean_sq_r = sums[:, 2 * dims + 1] / total
            var_r = (mean_sq_r - mean_r**2) * total / (total - 1)
            keep = ~(var_r <= 0.0)
            boot[start : start + counts.shape[0]][keep] = (
                sums[keep, :dims] / n_base
                - mean_r[keep, None] * (sums[keep, dims : 2 * dims] / n_base)
            ) / var_r[keep, None]
    return [1.96 * boot.std(axis=0, ddof=1) for boot in boots]


def format_cell(value) -> str:
    """One CSV cell: floats in shortest round-trip form, ints as digits."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_rows(path, header, rows) -> None:
    """Reference CSV writer: every cell through :func:`format_cell`, then one
    ``csv.writer.writerow`` per row."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])


def expand_columns(columns) -> list:
    """The columns with each indexed pair ``(values, index)`` written out as
    its rows ``values[i]``, one for each ``i`` of ``index``."""
    return [
        [column[0][i] for i in column[1]] if isinstance(column, tuple) else column
        for column in columns
    ]
