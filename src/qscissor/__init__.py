"""Truncated-Fock-space simulator of a two-photon quantum-scissor heralded amplifier."""

from .analysis import (
    FringeScan,
    fringe_scan,
    hom_coincidence,
    log_negativity,
    negativity_curve,
    path_entangled_state,
)
from .circuit import (
    BeamSplitter,
    ModeUnitary,
    PhaseShift,
    apply_mode_unitary,
    beam_splitter_unitary,
    compile_circuit,
    fock_amplitude,
    permanent,
    tritter_elements,
)
from .fock import (
    MixedState,
    PureState,
    tensor,
)
from .scissor import (
    SUCCESS_PATTERNS,
    ScissorOutcome,
    amplified_mixture_closed_form,
    heralded_amplify,
    measured_two_photon_gain,
    run_two_scissor,
    simulate_gain_measurement,
    two_photon_gain,
)
from .sensitivity import (
    LOSS_POINTS,
    LossPoint,
    SobolResult,
    first_order_indices,
    lossy_gain_model,
    saltelli_sample,
    sensitivity_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BeamSplitter",
    "FringeScan",
    "LOSS_POINTS",
    "LossPoint",
    "MixedState",
    "ModeUnitary",
    "PhaseShift",
    "PureState",
    "ScissorOutcome",
    "SobolResult",
    "SUCCESS_PATTERNS",
    "amplified_mixture_closed_form",
    "apply_mode_unitary",
    "beam_splitter_unitary",
    "compile_circuit",
    "first_order_indices",
    "fock_amplitude",
    "fringe_scan",
    "heralded_amplify",
    "hom_coincidence",
    "log_negativity",
    "lossy_gain_model",
    "measured_two_photon_gain",
    "negativity_curve",
    "path_entangled_state",
    "permanent",
    "run_two_scissor",
    "saltelli_sample",
    "sensitivity_sweep",
    "simulate_gain_measurement",
    "tensor",
    "tritter_elements",
    "two_photon_gain",
]
