import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from oracles import (
    amplified_path_state,
    density_matrix,
    dict_run_two_scissor,
    fit_visibility,
    fock_state,
    fourier_mixer,
    from_pure,
    full_circuit_amplify,
    gain_to_transmittance,
    herald_phase,
    ideal_scissor_transform,
    lossy_two_photon_input,
    normalized,
    photon_number_weights,
    qft_unitary,
)
from qscissor import analysis, circuit, fock, scissor, sensitivity
from qscissor.circuit import compile_circuit, tritter_elements
from qscissor.fock import MixedState, PureState
from qscissor.scissor import (
    SUCCESS_PATTERNS,
    amplified_mixture_closed_form,
    heralded_amplify,
    measured_two_photon_gain,
    pnr_coincidence_probability,
    run_two_scissor,
    simulate_gain_measurement,
    two_photon_gain,
)
from qscissor.sensitivity import lossy_gain_model, sensitivity_sweep


def random_qutrit_input(rng):
    amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return amps / np.linalg.norm(amps)


def expected_output(coeffs, g, pattern):
    """Closed-form prediction with the pattern's herald phase applied."""
    ideal = ideal_scissor_transform(coeffs, g)
    phase = herald_phase(pattern)
    return ideal * np.exp(1j * phase * np.arange(3))


def fidelity(a, b) -> float:
    """|<a|b>|^2 of two amplitude arrays."""
    return abs(np.vdot(a, b)) ** 2


EQUAL = np.ones(3) / math.sqrt(3.0)  # (|0> + |1> + |2>) / sqrt(3)
HERALD = (1, 1, 0)  # the CLI default of gain-sweep and sobol


# ---------------------------------------------------------------------------
# gain setting
# ---------------------------------------------------------------------------


def test_gain_to_transmittance_values():
    assert gain_to_transmittance(0.0) == pytest.approx(1.0)
    assert gain_to_transmittance(1.0) == pytest.approx(0.5)
    assert gain_to_transmittance(3.0) == pytest.approx(0.1)


def test_gain_to_transmittance_rejects_negative():
    with pytest.raises(ValueError):
        gain_to_transmittance(-0.5)


@pytest.mark.parametrize(
    "g", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"]
)
@pytest.mark.parametrize(
    "closed_form",
    [
        gain_to_transmittance,
        lambda g: ideal_scissor_transform([1.0, 1.0, 1.0], g),
        lambda g: amplified_mixture_closed_form(0.05, g),
        lambda g: two_photon_gain(0.05, g),
        lambda g: amplified_path_state(0.2, g),
    ],
    ids=[
        "gain_to_transmittance",
        "ideal_scissor_transform",
        "amplified_mixture_closed_form",
        "two_photon_gain",
        "amplified_path_state",
    ],
)
def test_closed_forms_reject_bad_gain(closed_form, g):
    with pytest.raises(ValueError, match=r"outside \[0\.0, 1000000\.0\]"):
        closed_form(g)


def test_gain_setting_round_trip():
    for g in (0.25, 1.0, 2.5, 7.0):
        eta = gain_to_transmittance(g)
        assert g**2 == pytest.approx((1 - eta) / eta, abs=1e-12)


# ---------------------------------------------------------------------------
# herald phases
# ---------------------------------------------------------------------------


def test_herald_phase_table():
    assert herald_phase((1, 1, 0)) == 0.0
    assert herald_phase((1, 0, 1)) == 2.0 * math.pi / 3.0
    assert herald_phase((0, 1, 1)) == 4.0 * math.pi / 3.0


def test_herald_phase_rejects_failure_patterns():
    with pytest.raises(ValueError):
        herald_phase((2, 0, 0))
    with pytest.raises(ValueError):
        herald_phase((1, 1, 1))


def wrapped_angle_difference(a, b):
    """Signed difference between two angles folded into (-pi, pi]."""
    return (a - b + np.pi) % (2 * np.pi) - np.pi


def test_simulated_herald_phases_match_table():
    for pattern in SUCCESS_PATTERNS:
        c = run_two_scissor(EQUAL, 2.0, pattern).output
        step = herald_phase(pattern)
        assert abs(wrapped_angle_difference(np.angle(c[1] / c[0]), step)) < 1e-9
        assert abs(wrapped_angle_difference(np.angle(c[2] / c[1]), step)) < 1e-9


# ---------------------------------------------------------------------------
# ideal transform
# ---------------------------------------------------------------------------


def test_ideal_transform_unit_gain_is_identity():
    c = np.array([0.5, 0.5j, -0.5, 0.5])[:3]
    c = c / np.linalg.norm(c)
    out = ideal_scissor_transform(c, 1.0)
    assert np.allclose(out, c)


def test_ideal_transform_scales_by_gain_powers():
    out = ideal_scissor_transform([1.0, 1.0, 1.0], 3.0)
    expected = np.array([1.0, 3.0, 9.0]) / np.linalg.norm([1.0, 3.0, 9.0])
    assert np.allclose(out, expected)


def test_ideal_transform_truncates_high_components():
    out = ideal_scissor_transform([1.0, 0.0, 0.0, 5.0], 2.0)
    assert out.shape == (3,)
    assert np.allclose(out, [1.0, 0.0, 0.0])


def test_ideal_transform_degenerate_input():
    with pytest.raises(ValueError, match="no support"):
        ideal_scissor_transform([0.0, 0.0, 0.0, 1.0], 2.0)


def test_ideal_transform_zero_gain_keeps_vacuum_only():
    out = ideal_scissor_transform([0.6, 0.8, 0.0], 0.0)
    assert np.allclose(out, [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# full circuit vs closed form
# ---------------------------------------------------------------------------


def test_vacuum_is_fixed_point():
    outcome = run_two_scissor([1.0, 0.0, 0.0], 2.0, HERALD)
    assert abs(outcome.output[0]) == pytest.approx(1.0)
    assert outcome.truncation_weight == 0.0


def test_equal_superposition_gain_two():
    out = run_two_scissor(EQUAL, 2.0, (1, 1, 0)).output
    mags = np.abs(out)
    assert mags / mags[0] == pytest.approx([1.0, 2.0, 4.0], abs=1e-10)
    assert fidelity(out, expected_output(EQUAL, 2.0, (1, 1, 0))) > 1 - 1e-10


@pytest.mark.parametrize("g", [0.5, 1.0, 2.0, 3.0])
def test_oracle_equivalence_random_inputs(g):
    rng = np.random.default_rng(int(g * 100))
    for _ in range(25):
        psi = random_qutrit_input(rng)
        for pattern in SUCCESS_PATTERNS:
            out = run_two_scissor(psi, g, pattern).output
            assert fidelity(out, expected_output(psi, g, pattern)) > 1 - 1e-9


def random_state(rng, modes, cutoff):
    basis = [occ for occ in np.ndindex(*(cutoff + 1,) * modes) if sum(occ) <= cutoff]
    amps = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    return normalized(PureState(modes, dict(zip(basis, amps)), cutoff=cutoff))


TRITTER = compile_circuit(tritter_elements(), 3)


@pytest.mark.parametrize("g", [0.0, 0.5, 2.0, 6.0])
def test_heralded_amplify_matches_full_circuit_evolution(g):
    rng = np.random.default_rng(int(g * 10) + 5)
    for modes in (1, 2):
        for _ in range(3):
            state = random_state(rng, modes, cutoff=4)
            for signal_mode in range(modes):
                for pattern in SUCCESS_PATTERNS:
                    conditional, probability = heralded_amplify(
                        state, signal_mode, g, pattern
                    )
                    expected, expected_probability = full_circuit_amplify(
                        state, signal_mode, g, pattern, TRITTER
                    )
                    assert set(conditional.amplitudes) == set(expected)
                    for occ, amp in expected.items():
                        assert abs(conditional.amplitudes[occ] - amp) < 1e-14
                    assert probability == pytest.approx(expected_probability, abs=1e-14)


def test_amplifier_matches_qft_convention_up_to_global_phase():
    # the textbook circuit (Fourier mixer behind a -pi/3 resource splitter)
    # heralds the same states: one unit-modulus phase per pattern, whatever
    # the input and the gain
    rng = np.random.default_rng(2025)
    phases = {pattern: [] for pattern in SUCCESS_PATTERNS}
    for g in (0.0, 0.5, 2.0, 6.0):
        for modes in (1, 2):
            state = random_state(rng, modes, cutoff=4)
            for signal_mode in range(modes):
                for pattern in SUCCESS_PATTERNS:
                    conditional, probability = heralded_amplify(
                        state, signal_mode, g, pattern
                    )
                    expected, expected_probability = full_circuit_amplify(
                        state, signal_mode, g, pattern, qft_unitary(3), -math.pi / 3.0
                    )
                    assert set(conditional.amplitudes) == set(expected)
                    largest = max(expected, key=lambda occ: abs(expected[occ]))
                    phase = conditional.amplitudes[largest] / expected[largest]
                    assert abs(phase) == pytest.approx(1.0, abs=1e-12)
                    for occ, amp in expected.items():
                        assert abs(conditional.amplitudes[occ] - phase * amp) < 1e-14
                    assert probability == pytest.approx(expected_probability, abs=1e-14)
                    phases[pattern].append(phase)
    for pattern, found in phases.items():
        np.testing.assert_allclose(found, found[0], rtol=0.0, atol=1e-12)


def test_amplifier_runs_without_full_fock_evolution(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the amplifier must not evolve the full Fock space")

    for module in (circuit, fock, scissor, analysis):
        for name in ("apply_mode_unitary", "fock_transfer_matrix", "tensor"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    out = run_two_scissor(EQUAL, 2.0, (1, 0, 1)).output
    assert fidelity(out, expected_output(EQUAL, 2.0, (1, 0, 1))) > 1 - 1e-10
    assert measured_two_photon_gain(0.05, 3.0, HERALD) == pytest.approx(
        two_photon_gain(0.05, 3.0), rel=1e-9
    )
    scan = analysis.fringe_scan(0.2, 2.0, (0, 1, 1), np.linspace(0.0, np.pi, 9))
    assert fit_visibility(scan).visibility == pytest.approx(1.0, abs=1e-9)


def test_mixer_halves_are_compiled_once(monkeypatch):
    # each herald table and walk matrix compiles the two halves once, when
    # it is built, and never again while it is cached
    calls = []

    def counted(*args):
        calls.append(args)
        return compile_circuit(*args)

    monkeypatch.setattr(scissor, "compile_circuit", counted)
    scissor._herald_table.cache_clear()
    sensitivity._walk_matrix.cache_clear()
    for pattern in SUCCESS_PATTERNS:
        analysis.fringe_scan(0.2, 2.0, pattern, np.linspace(0.0, np.pi, 5))
    sensitivity._walk_matrix((1, 1, 0))
    assert len(calls) == 2 * 2  # two table builds, two halves each


# ---------------------------------------------------------------------------
# the amplifier derived from its resource photon number N
# ---------------------------------------------------------------------------


def test_layout_follows_the_resource_photon_number():
    assert SUCCESS_PATTERNS == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert (scissor._QFT_MODES, scissor._MODES) == ((0, 1, 3), 4)
    assert scissor._layout(2) == (SUCCESS_PATTERNS, scissor._QFT_MODES, scissor._MODES)
    assert scissor._RESOURCE_ONLY_HERALD == 2.0 / 9.0
    for photons in range(1, 6):
        patterns, mixer_modes, modes = scissor._layout(photons)
        assert len(set(patterns)) == photons + 1
        assert all(sorted(p) == [0] + [1] * photons for p in patterns)
        assert list(patterns) == sorted(patterns, reverse=True)
        assert mixer_modes == (0, 1, *range(3, photons + 2)) and modes == photons + 2


def _amplitude(u, photons, pattern, k) -> complex:
    """<pattern, k| u |k, N, 0, ...> from u's sector blocks: the pattern on
    the mixer modes 0, 1, 3, ..., N + 1 and k photons in the output mode 2."""
    start = (k, photons) + (0,) * photons
    heralded = (*pattern[:2], k, *pattern[2:])
    block = circuit.sector_transfer_blocks(u, 2 * photons)[k + photons]
    return block[circuit.sector_rank(heralded), circuit.sector_rank(start)]


def test_shipped_table_is_the_tritter_halves_after_the_splitter():
    # the product the bits come from: the halves first, then the splitter
    first, second = scissor._mixer_halves()
    u = second @ first @ scissor._resource_splitter(scissor._MODES)
    table = scissor._herald_table()
    assert list(table) == list(SUCCESS_PATTERNS)
    with pytest.raises(TypeError):
        table[SUCCESS_PATTERNS[0]] = table[SUCCESS_PATTERNS[1]]
    for pattern, amplitudes in table.items():
        expected = [_amplitude(u, 2, pattern, k) for k in range(3)]
        assert np.array_equal(amplitudes, expected)
        built = scissor._herald_amplitudes(2, second @ first)
        assert np.array_equal(built[pattern], expected)


@pytest.mark.parametrize("photons", [1, 3, 4])
def test_herald_builder_is_the_permanent_at_other_n(photons):
    mixer = fourier_mixer(photons)
    splitter = circuit.embed_unitary(
        circuit.beam_splitter_unitary(0.5), (1, 2), photons + 2
    )
    u = mixer @ splitter
    table = scissor._herald_amplitudes(photons, mixer)
    assert list(table) == list(scissor._layout(photons)[0])
    for pattern, amplitudes in table.items():
        with pytest.raises(ValueError):
            amplitudes[0] = 0.0
        for k, amplitude in enumerate(amplitudes):
            start = (k, photons) + (0,) * photons
            heralded = (*pattern[:2], k, *pattern[2:])
            dense = circuit.fock_amplitude(u, start, heralded)
            assert amplitude == pytest.approx(dense, abs=1e-12)


def test_no_fock_map_outlives_its_build():
    # the N = 4 map's sector blocks take about 40 MiB; once the table built
    # from them is released, only the basis layouts may stay
    mixer = fourier_mixer(4)
    tracemalloc.start()
    try:
        table = scissor._herald_amplitudes(4, mixer)
        del table
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 4 * 2**20


@pytest.mark.parametrize("g", [0.0, 0.3, 1.0, 4.0])
def test_single_photon_scissor_is_pegg_phillips_barnett(g):
    # N = 1: each of the two patterns heralds c0|0> + c1|1> with probability
    # (|c0|^2 + g^2 |c1|^2) / (2 (1 + g^2)) and leaves c0|0> + g c1|1> up to
    # its phase per photon, 0 for one pattern and pi for the other
    table = scissor._herald_amplitudes(1, fourier_mixer(1))
    assert list(table) == [(1, 0), (0, 1)]
    c, k = np.array([0.6, 0.8j]), np.arange(2)
    steps = []
    for amplitudes in table.values():
        heralded = c * amplitudes * scissor._gain_factor(g, 1 - k, k)
        probability = np.sum(np.abs(heralded) ** 2)
        expected = (abs(c[0]) ** 2 + g * g * abs(c[1]) ** 2) / (2.0 * (1.0 + g * g))
        assert probability == pytest.approx(expected, rel=1e-12, abs=0.0)
        step = amplitudes[1] / amplitudes[0]
        steps.append(np.angle(step))
        ideal = c * g**k * (step / abs(step)) ** k
        ideal /= np.linalg.norm(ideal)
        assert fidelity(ideal, heralded / math.sqrt(probability)) == pytest.approx(1.0)
    assert abs(steps[1] - steps[0]) == pytest.approx(math.pi, abs=1e-12)


def test_success_probability_symmetric_across_patterns():
    rng = np.random.default_rng(61)
    psi = random_qutrit_input(rng)
    probs = [run_two_scissor(psi, 1.7, p).success_probability for p in SUCCESS_PATTERNS]
    assert probs[0] == pytest.approx(probs[1], abs=1e-12)
    assert probs[0] == pytest.approx(probs[2], abs=1e-12)
    mags = [np.abs(run_two_scissor(psi, 1.7, p).output) for p in SUCCESS_PATTERNS]
    assert np.allclose(mags[0], mags[1], atol=1e-10)
    assert np.allclose(mags[0], mags[2], atol=1e-10)


def test_rejects_failure_pattern_and_bad_cutoff():
    with pytest.raises(ValueError, match="success pattern"):
        run_two_scissor([1.0, 0.0, 0.0], 1.0, (2, 0, 0))
    with pytest.raises(ValueError, match="cutoff"):
        run_two_scissor([1.0] + [0.0] * 6, 1.0, HERALD)


@pytest.mark.parametrize(
    "amplitudes, message",
    [([], r"shape \(0,\)"), ([[1.0, 0.0]], r"shape \(1, 2\)"), ([0.0, 0.0], "zero state")],
)
def test_rejects_empty_nested_or_zero_inputs(amplitudes, message):
    with pytest.raises(ValueError, match=message):
        run_two_scissor(amplitudes, 1.0, HERALD)


def test_three_photon_component_cannot_herald():
    # a pure |3> can never satisfy a two-photon herald
    with pytest.raises(ValueError, match="c0, c1, c2 are all zero: nothing can be"):
        run_two_scissor([0.0, 0.0, 0.0, 1.0], 2.0, HERALD)


def test_underflowing_herald_probability_is_not_called_zero():
    # the conditional state ~1e-170 |0> is nonzero, but its squared norm
    # (about 1e-341) would fall below the smallest subnormal; the input check
    # says so before the amplifier runs
    with pytest.raises(ValueError, match="c0, c1, c2 too small to herald at g = 1.0"):
        run_two_scissor([1e-170, 0.0, 0.0, 1.0], 1.0, HERALD)


@pytest.mark.parametrize(
    "amplitudes, message",
    [
        ([math.nan], r"must be finite, got \[\(nan\+0j\)\]"),
        ([math.inf, 1.0], r"must be finite, got \[\(inf\+0j\), \(1\+0j\)\]"),
        # |c|^2 would overflow
        ([1e308, 1e308], r"max \|c\| = 1e\+308 outside \[1e-150, 1e\+150\]"),
    ],
    ids=["nan", "inf", "huge"],
)
def test_rejects_non_finite_or_huge_inputs(amplitudes, message):
    with pytest.raises(ValueError, match=message):
        run_two_scissor(amplitudes, 1.0, HERALD)


def test_truncation_weight_reported_and_output_clean():
    outcome = run_two_scissor([1.0, 1.0, 0.0, 1.0], 1.5, HERALD)
    assert outcome.truncation_weight == pytest.approx(1.0 / 3.0)
    assert outcome.output.shape == (3,)  # nothing above two photons
    # the conditional output is the renormalized amplified 0..2 part
    expected = ideal_scissor_transform([1.0, 1.0, 0.0], 1.5)
    mags = list(np.abs(outcome.output))
    assert mags == pytest.approx(list(np.abs(expected)), abs=1e-10)


def test_mixture_linearity():
    # the dict-state scissor run takes mixtures, component by component
    rng = np.random.default_rng(71)
    pure_a, pure_b = (
        PureState(1, {(k,): c for k, c in enumerate(random_qutrit_input(rng))}, cutoff=2)
        for _ in range(2)
    )
    mix = MixedState([(0.3, pure_a), (0.7, pure_b)])
    outcome = dict_run_two_scissor(mix, 2.0)
    pa = dict_run_two_scissor(pure_a, 2.0)
    pb = dict_run_two_scissor(pure_b, 2.0)
    assert outcome.success_probability == pytest.approx(
        0.3 * pa.success_probability + 0.7 * pb.success_probability, abs=1e-12
    )
    expected = (
        0.3 * pa.success_probability * density_matrix(pa.output)
        + 0.7 * pb.success_probability * density_matrix(pb.output)
    ) / outcome.success_probability
    assert np.max(np.abs(density_matrix(outcome.output) - expected)) < 1e-10


def test_success_probability_prefactor_scales_as_inverse_g4():
    # the vacuum success probability carries the protocol's g^-4 price tag
    p20 = run_two_scissor([1.0], 20.0, HERALD).success_probability
    p40 = run_two_scissor([1.0], 40.0, HERALD).success_probability
    assert p20 * 20.0**4 == pytest.approx(2.0 / 9.0, rel=2e-2)
    assert abs(p40 * 40.0**4 - p20 * 20.0**4) / (p20 * 20.0**4) < 0.01


def test_g_zero_edge_truncates_to_vacuum():
    outcome = run_two_scissor([0.6, 0.8], 0.0, HERALD)
    assert abs(outcome.output[0]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# closed-form mixture, gain and purification
# ---------------------------------------------------------------------------


def test_lossy_input_weights():
    mix = lossy_two_photon_input(0.3)
    weights = photon_number_weights(mix, 0)
    assert weights == pytest.approx([0.49, 0.42, 0.09])


def test_amplified_mixture_unit_gain_matches_input():
    tau = 0.37
    weights, normalization = amplified_mixture_closed_form(tau, 1.0)
    assert normalization == pytest.approx(1.0, abs=1e-12)
    assert weights == pytest.approx(
        [(1 - tau) ** 2, 2 * tau * (1 - tau), tau**2], abs=1e-12
    )


def test_amplified_mixture_lossless_channel():
    weights, _ = amplified_mixture_closed_form(1.0, 2.5)
    assert weights == pytest.approx([0.0, 0.0, 1.0])


def test_amplified_mixture_frozen_values():
    weights, normalization = amplified_mixture_closed_form(0.05, 3.0)
    assert normalization == pytest.approx(1.0 / 1.96, abs=1e-12)
    assert weights * 1.96 == pytest.approx([0.9025, 0.855, 0.2025], abs=1e-12)


def test_two_photon_gain_values():
    assert two_photon_gain(0.4, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert two_photon_gain(0.05, 3.0) == pytest.approx(81.0 / 1.96, abs=1e-12)
    assert two_photon_gain(0.05, 1e6) == pytest.approx(400.0, rel=1e-9)


def test_two_photon_gain_rejects_tau_zero():
    with pytest.raises(ValueError, match=r"0\.0 outside \(0\.0, 1\.0\]"):
        two_photon_gain(0.0, 2.0)


@pytest.mark.parametrize("closed_form", [amplified_mixture_closed_form, two_photon_gain])
def test_closed_forms_name_an_overflowing_fourth_power(closed_form):
    # g^4 would overflow; the gain check rejects g above 1e6 first
    with pytest.raises(ValueError, match=r"1e\+200 outside \[0\.0, 1000000\.0\]"):
        closed_form(0.5, 1e200)


def test_gain_monotone_in_g():
    gains = [two_photon_gain(0.05, g) for g in np.linspace(0.0, 50.0, 200)]
    assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))


def test_gain_ordering_in_tau():
    for g in np.linspace(1.0, 30.0, 30):
        assert two_photon_gain(0.05, g) >= two_photon_gain(0.1, g) - 1e-12


def test_purification_two_photon_weight_monotone():
    weights = [amplified_mixture_closed_form(0.05, g)[0][2] for g in np.linspace(0, 80, 161)]
    assert all(b >= a - 1e-15 for a, b in zip(weights, weights[1:]))
    assert weights[-1] > 0.99


def test_simulated_mixture_matches_closed_form():
    tau, g = 0.05, 2.0
    outcome = dict_run_two_scissor(lossy_two_photon_input(tau), g)
    simulated = photon_number_weights(outcome.output, 0, max_n=2)
    expected, _ = amplified_mixture_closed_form(tau, g)
    assert simulated == pytest.approx(list(expected), abs=1e-12)


# ---------------------------------------------------------------------------
# counting-model gain measurement
# ---------------------------------------------------------------------------


def test_pnr_pair_separates_half_the_time():
    assert pnr_coincidence_probability(fock_state((2,), cutoff=2)) == pytest.approx(0.5)
    assert pnr_coincidence_probability(fock_state((1,), cutoff=2)) == 0.0


def test_measured_gain_unit_gain_is_one():
    assert measured_two_photon_gain(0.2, 1.0, HERALD) == pytest.approx(1.0, abs=1e-9)


def test_measured_gain_matches_closed_form():
    for pattern in SUCCESS_PATTERNS:
        for tau, g in [(0.05, 2.0), (0.1, 3.0), (0.5, 1.5)]:
            assert measured_two_photon_gain(tau, g, pattern) == pytest.approx(
                two_photon_gain(tau, g), abs=1e-9 * two_photon_gain(tau, g)
            )


@pytest.mark.parametrize("with_amplifier", [True, False])
def test_gain_measurement_names_an_underflowing_two_photon_rate(with_amplifier):
    # tau^2 = 1e-400 would underflow to 0.0 and make the gain 0/0 = nan; the
    # transmission check rejects tau below 1e-100 first
    message = r"1e-200 outside \[1e-100, 1\.0\]"
    with pytest.raises(ValueError, match=message):
        simulate_gain_measurement(1e-200, 1.0, with_amplifier, HERALD)
    with pytest.raises(ValueError, match=message):
        measured_two_photon_gain(1e-200, 1.0, HERALD)


def test_gain_measurement_off_normalization_cancels_heralds():
    off = simulate_gain_measurement(0.3, 2.0, False, HERALD)
    assert off.rho22_estimate == pytest.approx(0.09, abs=1e-12)
    assert off.herald_probability == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_gain_measurement_checks_its_pattern_before_its_grid():
    # tau = 2.0 is outside the domain too, but the pattern is checked first
    with pytest.raises(ValueError, match="is not a success pattern"):
        simulate_gain_measurement(2.0, 1.0, True, (9, 9, 9))


# ---------------------------------------------------------------------------
# the one herald-pattern check
# ---------------------------------------------------------------------------

_PATTERN_ENTRY_POINTS = {
    "heralded_amplify": lambda p: heralded_amplify(fock_state((1,), cutoff=2), 0, 1.5, p),
    "run_two_scissor": lambda p: run_two_scissor([0.0, 1.0], 1.5, p),
    "herald_phase": herald_phase,
    "simulate_gain_measurement": lambda p: simulate_gain_measurement(0.3, 1.5, True, p),
    "measured_two_photon_gain": lambda p: measured_two_photon_gain(0.3, 1.5, p),
    "fringe_scan": lambda p: analysis.fringe_scan(0.2, 2.0, p, [0.0, 1.0]),
    "lossy_gain_model": lambda p: lossy_gain_model(1.5, 0.3, np.zeros(14), pattern=p),
    "sensitivity_sweep": lambda p: sensitivity_sweep(
        [1.5], 0.3, n_base=8, seed=0, bounds=(0.0, 0.5), pattern=p,
        bootstrap_resamples=2,
    ),
}


@pytest.mark.parametrize("entry", list(_PATTERN_ENTRY_POINTS))
@pytest.mark.parametrize(
    "pattern, expected",
    [
        ((1.5, 1, 0), None),
        ((1, 1.9, 0), None),
        ((math.nan, 1, 0), None),
        ((math.inf, 1, 0), None),
        ((1.0, np.int64(1), 0), (1, 1, 0)),
        (np.array([0, 1, 1]), (0, 1, 1)),
    ],
    ids=["1.5", "1.9", "nan", "inf", "float-and-int64", "array"],
)
def test_every_pattern_entry_point_checks_the_pattern(entry, pattern, expected):
    call = _PATTERN_ENTRY_POINTS[entry]
    if expected is None:  # int() alone would truncate these to a success pattern
        with pytest.raises(ValueError, match="success pattern"):
            call(pattern)
        return
    stored = getattr(call(pattern), "pattern", expected)
    assert stored == expected
    assert all(type(n) is int for n in stored)


_MODE_ENTRY_POINTS = {
    "heralded_amplify": lambda state, mode: heralded_amplify(state, mode, 1.0, (1, 1, 0)),
    "project_pattern": lambda state, mode: fock.project_pattern(state, [mode], [1]),
    "photon_number_weights": lambda state, mode: photon_number_weights(
        from_pure(state), mode
    ),
}


@pytest.mark.parametrize("entry", list(_MODE_ENTRY_POINTS))
@pytest.mark.parametrize("mode", [-1, 2])
def test_every_mode_entry_point_shares_the_range_message(entry, mode):
    state = PureState(2, {(1, 0): 0.6, (1, 1): 0.8}, cutoff=2)
    message = f"^mode {mode} out of range for a 2-mode state$"
    with pytest.raises(ValueError, match=message):
        _MODE_ENTRY_POINTS[entry](state, mode)


def _int_tuple_sites(path: pathlib.Path) -> set:
    """"<module>.<function>" of every ``tuple(...)`` call that mentions ``int``."""
    sites = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and any(isinstance(n, ast.Name) and n.id == "int" for n in ast.walk(node))
        ):
            sites.add(f"{path.stem}.{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text()), "<module>")
    return sites


def test_int_tuples_are_built_only_by_the_two_checks():
    # a stray tuple(int(n) for n in ...) truncates 1.5 to 1 without a word
    package = pathlib.Path(scissor.__file__).parent
    sites = set().union(*map(_int_tuple_sites, package.glob("*.py")))
    assert sites == {"fock._occupation", "scissor._check_pattern"}


@pytest.mark.parametrize(
    "taus,gains,rejected",
    [
        ((1.0,), (0.0,), True),
        ((1.0,), (-0.0,), True),
        ((0.5,), (0.0,), False),
        ((1.0,), (math.nan,), False),
        (np.array([0.5, 1.0]), np.array([0.0, 2.0]), True),
        (np.array([0.5, 0.9]), np.array([0.0, 2.0]), False),
        (np.array([1.0]), np.array([1e-25, 2.0]), False),
        (np.array([0.9, 1.0]), np.array([2.0, 0.0]), True),
        (np.array([0.5, 0.9]), np.array([0.0, 0.0]), False),
        ((math.nan,), (0.0,), False),
    ],
)
def test_mixture_herald_check_takes_one_value_or_a_grid(taus, gains, rejected):
    """One membership test over a one-value tuple (the library's scalar
    calls) or a whole grid (the CLI's check of two grids)."""
    if rejected:
        with pytest.raises(ValueError, match="never holds"):
            scissor._check_mixture_heralds(taus, gains)
    else:
        scissor._check_mixture_heralds(taus, gains)


def test_each_keeps_its_width_axis():
    """``_each`` stacks ``width`` tables of the values' shape, one too: the
    subarray dtype is spelled ``(float, (width,))``, which numpy 1.24 on reads
    as a subarray (``(float, 1)`` is plain float64 there, with a warning)."""
    values = np.array([[0.5], [2.0]])
    (halves,) = scissor._each(lambda x: (x / 2,), values, 1)
    assert halves.shape == values.shape and halves.tolist() == [[0.25], [1.0]]
    table = scissor._each(lambda x: (x, -x, x * x), values.ravel(), 3)
    assert table.tolist() == [[0.5, 2.0], [-0.5, -2.0], [0.25, 4.0]]


def test_public_calls_reject_zero_gain_at_full_transmission():
    for call in (
        lambda: two_photon_gain(1.0, 0.0),
        lambda: measured_two_photon_gain(1.0, -0.0, HERALD),
        lambda: lossy_gain_model(0.0, 1.0, [0.0] * 14, HERALD),
    ):
        with pytest.raises(ValueError, match="never holds"):
            call()
    assert two_photon_gain(1.0, 2.0) == 1.0
