"""Reference implementations the tests check the package against.

None of these run in the package: the three-mode Fourier interferometer is
the textbook form of the amplifier's mixer (the package builds the tritter,
which equals it up to diagonal phases), the dict loss channel is the
Kraus-operator definition the Sobol engine's batched loss walk reproduces,
and the per-branch walk is that loss walk one Kraus branch at a time, which
the engine composes into a single matrix product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from qscissor.circuit import (
    ModeUnitary,
    apply_mode_unitary,
    beam_splitter_unitary,
    embed_unitary,
)
from qscissor.fock import MixedState, PureState, fock_state, project_pattern, tensor
from qscissor.scissor import _gain_factor, gain_to_transmittance
from qscissor.sensitivity import (
    _BEAM_PHOTONS,
    _MIXER_POWERS,
    _STARTS,
    _build_povm,
    _mixer_branches,
    _power_table,
    _resource_stages,
)


def qft_unitary(m: int) -> ModeUnitary:
    """Discrete Fourier interferometer: U_jk = omega^{jk} / sqrt(m)."""
    if m < 1:
        raise ValueError(f"mode count must be >= 1, got {m}")
    j, k = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    omega = np.exp(2j * np.pi / m)
    return ModeUnitary(omega ** (j * k) / np.sqrt(m))


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
        branch = PureState(state.modes, amps, cutoff=state.cutoff, prune=0.0)
        weight = branch.norm() ** 2
        if weight > 0.0:
            yield weight, branch.normalized()


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
        state = MixedState.from_pure(state)
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
    splitter = embed_unitary(
        beam_splitter_unitary(gain_to_transmittance(g), splitter_phase),
        (res, out),
        total,
    )
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


@functools.lru_cache(maxsize=None)  # keyed on the three success patterns
def _walk_context(pattern: tuple) -> tuple:
    """(resource stages, mixer branches, POVM) of ``pattern``, per sector."""
    mixer = _mixer_branches(pattern)
    return _resource_stages(mixer), mixer, _build_povm(pattern)


def _resource_amplitudes(pattern, g, t_anc):
    """Per mixer sector, each start's [starts, d_mid, samples] amplitudes
    after the gain splitter at ``g``, the resource-arm loss ``t_anc`` (per
    sample) and the first mixer half; None where no start arrives."""
    s_anc = _power_table(np.sqrt(t_anc), _BEAM_PHOTONS)
    s_anc_m = _power_table(np.sqrt(1.0 - t_anc), _BEAM_PHOTONS)
    amplitudes = []
    for stage in _walk_context(pattern)[0]:
        if stage is None:
            amplitudes.append(None)
            continue
        split = _gain_factor(g, stage.b[:, None] - stage.reflected, stage.reflected)
        loss = s_anc * s_anc_m[stage.k][:, None, :]
        amplitudes.append(stage.matrix @ (loss * split[:, :, None]))
    return amplitudes


def branch_walk(pattern, g, t_anc, t_internal):
    """Reference Kraus-branch walk, one gather and matmul per branch.

    The resource-stage amplitudes of every start are carried through each
    heraldable in-mixer branch in turn: the branch's surviving terms are
    gathered, scaled by their kept photons' transmission amplitudes and
    taken through the second mixer half, and the |amplitude|^2 rows,
    weighted by the lost photons' factor, are summed per start.  Returns,
    per sector, [_STARTS, n_valid, samples] sums at gain ``g``: each of
    ``sensitivity._branch_walk``'s g = 1 rows, times its splitter class's
    factor, added to its start's share of its POVM row.
    """
    resource, mixer, povms = _walk_context(pattern)
    amplitudes = _resource_amplitudes(pattern, g, t_anc)
    n = t_internal[0].shape[0]
    s_int = [_power_table(np.sqrt(t)) for t in t_internal]
    kept = s_int[0][_MIXER_POWERS[:, 0]] * s_int[1][_MIXER_POWERS[:, 1]]
    kept *= s_int[2][_MIXER_POWERS[:, 2]]
    lost = [_power_table(1.0 - t) for t in t_internal]

    heralded = [np.zeros((_STARTS, povm.valid.size, n)) for povm in povms]
    for stage, amp, branches in zip(resource, amplitudes, mixer):
        if stage is None:
            continue
        for branch in branches:
            picked = amp[:, branch.src] * kept[branch.power_rows]
            final = branch.h2 @ picked
            weight = final.real**2 + final.imag**2
            k0, k1, k2 = branch.lost
            heralded[branch.end][stage.start] += weight * (
                lost[0][k0] * lost[1][k1] * lost[2][k2]
            )
    return heralded
