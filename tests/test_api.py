import inspect

import qscissor

#: Every parameter with a default of a public callable, as "callable.parameter".
#: A new option changes this set, so it is added here on purpose or not at all.
OPTIONS = {
    "BeamSplitter.phase",
    "FringeScan.wavenumber",
    "PureState.cutoff",
    "VisibilityFit.degenerate",
    "beam_splitter_unitary.phase",
    "first_order_indices.bootstrap_resamples",
    "first_order_indices.bounds",
    "first_order_indices.dims",
    "fock_state.cutoff",
    "fringe_scan.pattern",
    "fringe_scan.phases",
    "lossy_gain_model.pattern",
    "make_gain_model.pattern",
    "measured_two_photon_gain.pattern",
    "run_two_scissor.pattern",
    "saltelli_sample.bounds",
    "sensitivity_sweep.bootstrap_resamples",
    "sensitivity_sweep.bounds",
    "sensitivity_sweep.n_base",
    "sensitivity_sweep.pattern",
    "sensitivity_sweep.seed",
    "sensitivity_sweep.tau",
    "simulate_gain_measurement.pattern",
    "vacuum.cutoff",
}


def test_public_options_are_pinned():
    found = set()
    for name in qscissor.__all__:
        obj = getattr(qscissor, name)
        if callable(obj):
            found |= {
                f"{name}.{parameter.name}"
                for parameter in inspect.signature(obj).parameters.values()
                if parameter.default is not inspect.Parameter.empty
            }
    assert found == OPTIONS
