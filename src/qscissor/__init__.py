"""Truncated-Fock-space simulator of a two-photon quantum-scissor heralded amplifier.

``sensitivity`` (the Sobol loss analysis) is registered lazily: it is in
``sys.modules`` from this import on, but its code first runs when one of its
attributes is read, which only the ``sobol`` experiment does.  Its public
names are served from here on first use (PEP 562).
"""

import importlib.util
import sys
import threading
import types

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


#: held while a lazily registered submodule runs its code
_LOADING = threading.RLock()


class _Unrun(types.ModuleType):
    """A registered submodule whose code has not run yet: the first attribute
    read runs it, and a read from another thread meanwhile waits for the
    whole run.  (``importlib.util.LazyLoader`` makes the module a plain one
    before running it, so on Python 3.11 such a read sees the half-run module
    and raises ``AttributeError``.)"""

    def __getattribute__(self, name):
        with _LOADING:
            if type(self) is _Unrun:
                self.__class__ = _Running
                self.__spec__.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, name)


class _Running(types.ModuleType):
    """A submodule while its code runs: its own thread reads it freely (the
    lock is reentrant), other threads wait until the run is over."""

    def __getattribute__(self, name):
        with _LOADING:
            return types.ModuleType.__getattribute__(self, name)


def _lazy_submodule(name: str) -> types.ModuleType:
    """Register ``qscissor.<name>`` in ``sys.modules`` without running it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _Unrun
    sys.modules[spec.name] = module
    return module


sensitivity = _lazy_submodule("sensitivity")
_SENSITIVITY_NAMES = (
    "LOSS_POINTS",
    "LossPoint",
    "SobolResult",
    "first_order_indices",
    "lossy_gain_model",
    "saltelli_sample",
    "sensitivity_sweep",
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


def __getattr__(name: str):
    if name in _SENSITIVITY_NAMES:
        return getattr(sensitivity, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SENSITIVITY_NAMES})
