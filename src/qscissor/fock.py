"""Fock-basis state containers and primitives.

States live in a truncated multimode Fock space: every basis label is an
occupation vector (one photon count per optical mode, stored as a plain tuple
of ints) and every state caps the *total* photon number at a configurable
cutoff.  Amplitude maps are kept sparse.  No experiment builds these states
(the runners hold photon-number amplitude arrays); they are the inputs of
``tensor``, ``project_pattern``, ``circuit.apply_mode_unitary`` and
``scissor.heralded_amplify``, the dict-state path the tests check against.

States drop exact zeros only, however small an amplitude is.  Operations
return new states and never mutate their inputs, and the module keeps no
state between calls (the basis layout is ``circuit.fock_sectors``).  The
containers are not frozen, though: a state's ``amplitudes`` is a plain
dict, so a state shared between threads stays consistent only while no
caller edits it.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Collection, Iterable, Mapping

#: Tolerance used for normalization checks.
NORM_TOL = 1e-12

OccupationVector = tuple  # photon counts per mode, e.g. (1, 1, 0)


def _occupation(values: Iterable[int]) -> OccupationVector:
    """``values`` as a tuple of ints; raises unless each is a non-negative integer.

    ``1.0`` and numpy integers pass; 1.5, NaN and inf fail rather than
    truncate.
    """
    key = tuple(values)
    try:
        occ = tuple(map(int, key))
    except (OverflowError, ValueError):  # inf, nan
        occ = None
    if occ != key or (occ and min(occ) < 0):
        raise ValueError(f"occupation {key} must contain non-negative integers")
    return occ


def _norm(amplitudes: Collection[complex]) -> float:
    """sqrt(sum |a|^2); amplitudes whose squares would underflow are rescaled
    by the largest |a| first, so nonzero amplitudes have a nonzero norm."""
    total = sum(abs(a) ** 2 for a in amplitudes)
    if total < sys.float_info.min and any(amplitudes):
        scale = max(map(abs, amplitudes))
        return scale * math.sqrt(sum(abs(a / scale) ** 2 for a in amplitudes))
    return math.sqrt(total)


class PureState:
    """Sparse complex amplitude map over occupation vectors.

    Parameters
    ----------
    modes:
        Number of optical modes; every key must have this length.
    amplitudes:
        Mapping occupation vector -> complex amplitude, not necessarily
        normalized.  NaN and infinite amplitudes are rejected.
    cutoff:
        Maximum total photon number.  Keys exceeding it are rejected rather
        than silently renormalized.  Exact zeros are dropped; every other
        amplitude is kept, however small.
    """

    def __init__(self, modes: int, amplitudes: Mapping[tuple, complex], cutoff: int):
        if modes < 0:
            raise ValueError("modes must be non-negative")
        if cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        self.modes = modes
        self.cutoff = cutoff
        amps: dict[tuple, complex] = {}
        for key, amp in amplitudes.items():
            occ = self._key(key)
            if sum(occ) > cutoff:
                raise ValueError(
                    f"occupation {occ} exceeds the total-photon cutoff {cutoff}"
                )
            amp = complex(amp)
            if not cmath.isfinite(amp):
                raise ValueError(f"amplitude {amp} of {occ} is not finite")
            if abs(amp) > 0.0:
                amps[occ] = amps.get(occ, 0.0) + amp
        self.amplitudes = amps

    def _key(self, values: Iterable[int]) -> OccupationVector:
        """``values`` as an occupation of this state's modes (of its length)."""
        occ = _occupation(values)
        if len(occ) != self.modes:
            raise ValueError(
                f"occupation {occ} has {len(occ)} modes, expected {self.modes}"
            )
        return occ

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = ", ".join(f"{occ}: {amp:.4g}" for occ, amp in sorted(self.amplitudes.items()))
        return f"PureState(modes={self.modes}, cutoff={self.cutoff}, {{{terms}}})"


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; the cutoffs add so product states always fit."""
    amps = {
        occ_a + occ_b: amp_a * amp_b
        for occ_a, amp_a in a.amplitudes.items()
        for occ_b, amp_b in b.amplitudes.items()
    }
    return PureState(a.modes + b.modes, amps, cutoff=a.cutoff + b.cutoff)


def _check_mode(mode: int, modes: int) -> None:
    if not 0 <= mode < modes:
        raise ValueError(f"mode {mode} out of range for a {modes}-mode state")


def project_pattern(
    state: PureState, modes: Iterable[int], counts: Iterable[int]
) -> tuple[PureState, float]:
    """Project distinct modes onto definite photon numbers and drop them.

    Returns the unnormalized residual state on the remaining modes together
    with the projection probability (squared norm of the kept amplitudes,
    assuming the input was normalized).
    """
    modes, counts = list(modes), list(counts)
    if len(modes) != len(counts):
        raise ValueError(f"{len(modes)} projection modes but {len(counts)} counts")
    if len(set(modes)) != len(modes):
        raise ValueError("projection modes must be distinct")
    for mode in modes:
        _check_mode(mode, state.modes)
    rest = [m for m in range(state.modes) if m not in modes]
    kept = {
        tuple(occ[m] for m in rest): amp
        for occ, amp in state.amplitudes.items()
        if all(occ[m] == n for m, n in zip(modes, counts))
    }
    residual = PureState(len(rest), kept, cutoff=state.cutoff)
    return residual, sum(abs(a) ** 2 for a in kept.values())


class MixedState:
    """Convex mixture of pure states on a common mode count and cutoff.

    The decomposition into pure components is not unique.
    """

    def __init__(self, components: Iterable[tuple[float, PureState]]):
        comps = []
        modes = cutoff = None
        for weight, state in components:
            weight = float(weight)
            if weight < -NORM_TOL:
                raise ValueError(f"negative component weight {weight}")
            if weight <= 0.0:
                continue
            if modes is None:
                modes, cutoff = state.modes, state.cutoff
            elif state.modes != modes or state.cutoff != cutoff:
                raise ValueError("all components must share modes and cutoff")
            comps.append((weight, state))
        if not comps:
            raise ValueError("a mixed state needs at least one component")
        self.components = comps
        self.modes = modes
        self.cutoff = cutoff

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MixedState({len(self.components)} components, modes={self.modes})"
