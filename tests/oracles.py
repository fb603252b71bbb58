"""Reference implementations the tests check the package against.

None of these run in the package: the three-mode Fourier interferometer is
the textbook form of the amplifier's mixer (the package builds the tritter,
which equals it up to diagonal phases), and the dict loss channel is the
Kraus-operator definition the Sobol engine's batched loss walk reproduces.
"""

from __future__ import annotations

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
from qscissor.scissor import gain_to_transmittance


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
