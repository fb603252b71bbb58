import math

import numpy as np
import pytest

from oracles import (
    QutritPathState,
    amplified_path_state,
    fit_visibility,
    fock_state,
    herald_phase,
    hom_closed_form,
    log_negativity_schmidt,
    normalized,
    vacuum,
)
from qscissor import scissor
from qscissor.analysis import (
    FringeScan,
    fringe_scan,
    hom_coincidence,
    log_negativity,
    negativity_curve,
    path_entangled_state,
)
from qscissor.circuit import (
    BeamSplitter,
    PhaseShift,
    apply_mode_unitary,
    beam_splitter_unitary,
    compile_circuit,
)
from qscissor.fock import project_pattern, tensor
from qscissor.scissor import _MAX_GAIN, SUCCESS_PATTERNS, heralded_amplify


def wrapped_angle_difference(a, b):
    return (a - b + np.pi) % (2 * np.pi) - np.pi


# ---------------------------------------------------------------------------
# path states
# ---------------------------------------------------------------------------


def test_path_state_extremes():
    # a ratio of 0 or 1 does not split the pair; the ratios next to them do
    for sigma in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"outside \(0\.0, 1\.0\)"):
            path_entangled_state(sigma)
    assert path_entangled_state(5e-324)[0] == 1.0
    assert path_entangled_state(1.0 - 2**-53)[2] == 1.0 - 2**-53


def test_path_state_balanced_split():
    c = path_entangled_state(0.5)
    assert np.allclose(np.abs(c), [0.5, math.sqrt(0.5), 0.5])


def test_path_state_ninety_ten():
    c = path_entangled_state(0.1)
    assert np.allclose(np.abs(c), [0.9, 0.42426406871192845, 0.1])


def test_path_state_is_normalized_for_all_sigma():
    for sigma in [5e-324, *np.linspace(0.0, 1.0, 21)[1:-1], 1.0 - 2**-53]:
        c = path_entangled_state(sigma)
        assert sum(abs(x) ** 2 for x in c) == pytest.approx(1.0, abs=1e-12)


def test_amplified_path_state_unit_gain():
    for sigma in (0.1, 0.25, 0.5):
        assert np.allclose(
            amplified_path_state(sigma, 1.0).coefficients,
            path_entangled_state(sigma),
        )


@pytest.mark.parametrize("sigma,g", [(0.1, 3.0), (0.2, 2.0), (0.5, 1.0)])
def test_amplified_path_state_balanced_at_matched_gain(sigma, g):
    assert g**2 == pytest.approx((1 - sigma) / sigma)
    c = np.abs(amplified_path_state(sigma, g).coefficients)
    assert np.allclose(c, [0.5, math.sqrt(0.5), 0.5], atol=1e-12)


def test_qutrit_state_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        QutritPathState((1.0, 1.0, 0.0))


@pytest.mark.parametrize(
    "coefficients, message",
    [((1.0, 1.0, 0.0), "not normalized"), ((1.0, 0.0), "three coefficients")],
)
def test_log_negativity_rejects_a_bad_path_state(coefficients, message):
    with pytest.raises(ValueError, match=message):
        log_negativity(coefficients)


# ---------------------------------------------------------------------------
# logarithmic negativity
# ---------------------------------------------------------------------------


def test_negativity_zero_for_product_states():
    assert log_negativity((1.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
    assert log_negativity((0.0, 0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_negativity_reference_values():
    assert log_negativity(path_entangled_state(0.1)) == pytest.approx(
        1.0204, abs=5e-4
    )
    assert log_negativity(amplified_path_state(0.1, 3.0).coefficients) == pytest.approx(
        1.5431, abs=5e-4
    )


def test_partial_transpose_matches_schmidt_shortcut():
    rng = np.random.default_rng(19)
    for _ in range(25):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c = c / np.linalg.norm(c)
        assert log_negativity(c) == pytest.approx(log_negativity_schmidt(c), abs=1e-10)


def test_balanced_peak_value_is_sigma_independent():
    expected = 2.0 * np.log2(1.0 + math.sqrt(0.5))
    for sigma in (0.1, 0.2, 0.5):
        g_star = math.sqrt((1 - sigma) / sigma)
        state = amplified_path_state(sigma, g_star)
        assert log_negativity(state.coefficients) == pytest.approx(expected, abs=1e-12)


def test_negativity_curve_peaks_at_matched_gain():
    g_grid = np.linspace(0.5, 4.0, 141)
    for sigma, g_star in [(0.2, 2.0), (0.1, 3.0)]:
        curve = negativity_curve(sigma, g_grid)
        post = np.array([row[2] for row in curve])
        peak_g = g_grid[np.argmax(post)]
        assert abs(peak_g - g_star) <= g_grid[1] - g_grid[0]
        pre = {row[1] for row in curve}
        assert len(pre) == 1  # pre-amplification value is constant in g


def test_negativity_curve_sigma_half_peaks_at_unit_gain():
    curve = negativity_curve(0.5, np.linspace(0.5, 2.0, 151))
    g, pre, post = max(curve, key=lambda row: row[2])
    assert g == pytest.approx(1.0, abs=0.011)
    assert post == pytest.approx(pre, abs=1e-9)


def test_negativity_monotone_below_matched_gain():
    sigma = 0.1
    grid = np.linspace(1.0, 3.0, 50)
    values = [log_negativity(amplified_path_state(sigma, g).coefficients) for g in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


_DEFAULT_GAINS = [0.5 + 0.025 * i for i in range(141)]  # the CLI's 0.5:4:0.025


@pytest.mark.parametrize("pattern", SUCCESS_PATTERNS)
def test_amplified_negativity_is_the_closed_form_for_every_pattern(pattern):
    # each pattern's herald phases are local, so they cannot change E_N
    for sigma in (0.1, 0.2, 0.5):
        path = path_entangled_state(sigma)
        for g in [0.0, 1e-25, *_DEFAULT_GAINS, 1e6]:
            expected = log_negativity(amplified_path_state(sigma, g).coefficients)
            amplified, _ = scissor._amplify(path, g, pattern)
            assert log_negativity(amplified) == pytest.approx(expected, rel=0, abs=1e-13)


def test_negativity_curve_is_the_closed_form():
    for sigma in (0.1, 0.2, 0.5):
        for g, _, post in negativity_curve(sigma, _DEFAULT_GAINS):
            expected = log_negativity(amplified_path_state(sigma, g).coefficients)
            assert post == pytest.approx(expected, rel=0, abs=1e-13)


def test_negativity_curve_is_finite_over_the_gain_range():
    # the largest gain puts nearly all the weight on |0, 2>; beyond it g^4
    # heads for overflow, and the gain check says so
    ((g, before, after),) = negativity_curve(0.5, [_MAX_GAIN])
    assert math.isfinite(before) and math.isfinite(after)
    assert 0.0 < after < 1e-5
    with pytest.raises(ValueError, match=r"1e\+300 outside \[0\.0, 1000000\.0\]"):
        negativity_curve(0.5, [1e300])


# ---------------------------------------------------------------------------
# HOM curve
# ---------------------------------------------------------------------------


def test_hom_values():
    assert hom_coincidence(0.0) == pytest.approx(1.0)
    assert hom_coincidence(math.pi / 8) == pytest.approx(0.0, abs=1e-15)
    assert hom_coincidence(math.pi / 16) == pytest.approx(0.5)


def test_hom_is_the_closed_form():
    # the default theta grid, and a wider one; the two differ in at most the
    # last bit or two
    thetas = [i * 0.007853981633974483 for i in range(200)] + [math.pi / 2]
    for theta in thetas + np.linspace(-10.0, 10.0, 1001).tolist():
        assert abs(hom_coincidence(theta) - hom_closed_form(theta)) <= 1e-15


def test_hom_identity_on_grid():
    thetas = np.linspace(0.0, np.pi, 1000)
    for theta in thetas:
        assert abs(hom_coincidence(theta) - math.cos(4 * theta) ** 2) < 1e-15


# ---------------------------------------------------------------------------
# fringes
# ---------------------------------------------------------------------------

#: the CLI's default phi grid, 101 points over one turn
_PHASES = np.linspace(0.0, 2.0 * np.pi, 101)


@pytest.mark.parametrize("sigma,g", [(0.5, 1.0), (0.2, 2.0), (0.1, 3.0)])
def test_balanced_gain_gives_unit_visibility(sigma, g):
    fit = fit_visibility(fringe_scan(sigma, g, (1, 1, 0), _PHASES))
    assert not fit.degenerate
    assert fit.visibility == pytest.approx(1.0, abs=1e-9)


def test_under_amplified_visibility_matches_imbalance():
    # with sigma = 0.1 and g = 2 the outer path amplitudes are 0.9 and 0.4,
    # so the expected contrast is 2ab / (a^2 + b^2)
    a, b = 0.9, 4.0 * 0.1
    expected = 2 * a * b / (a**2 + b**2)
    fit = fit_visibility(fringe_scan(0.1, 2.0, (1, 1, 0), _PHASES))
    assert fit.visibility == pytest.approx(expected, abs=1e-9)
    assert fit.visibility < 1.0


def test_fringe_offsets_step_by_two_thirds_pi():
    offsets = [
        fit_visibility(fringe_scan(0.1, 3.0, pattern, _PHASES)).offset
        for pattern in SUCCESS_PATTERNS
    ]
    d01 = wrapped_angle_difference(offsets[1], offsets[0])
    d12 = wrapped_angle_difference(offsets[2], offsets[1])
    assert abs(abs(d01) - 2 * np.pi / 3) < 1e-6
    assert abs(abs(d12) - 2 * np.pi / 3) < 1e-6
    # offsets track twice the herald phase (two-photon fringe)
    for pattern, offset in zip(SUCCESS_PATTERNS, offsets):
        predicted = (2.0 * herald_phase(pattern) + offsets[0]) % (2 * np.pi)
        assert abs(wrapped_angle_difference(offset, predicted)) < 1e-6


def test_fringe_scan_validates_arguments():
    with pytest.raises(ValueError):
        fringe_scan(0.0, 1.0, (1, 1, 0), _PHASES)
    with pytest.raises(ValueError):
        fringe_scan(0.5, 1.0, (1, 1, 1), _PHASES)


@pytest.mark.parametrize("pattern", SUCCESS_PATTERNS)
def test_fringe_scan_matches_per_phase_evolution(pattern):
    """Reference: compile and evolve the recombiner once per phase."""
    sigma, g = 0.2, 2.0
    phases = np.linspace(0.0, 2 * np.pi, 37)
    pair = tensor(fock_state((2,), cutoff=2), vacuum(1, cutoff=0))
    path = apply_mode_unitary(pair, beam_splitter_unitary(1.0 - sigma))
    amplified = normalized(heralded_amplify(path, 1, g, pattern)[0])
    expected = [
        project_pattern(
            apply_mode_unitary(
                amplified,
                compile_circuit([PhaseShift(1, phi), BeamSplitter(0, 1, 0.5)], 2),
            ),
            (0, 1),
            (1, 1),
        )[1]
        for phi in phases
    ]
    scan = fringe_scan(sigma, g, pattern, phases)
    np.testing.assert_allclose(scan.values, expected, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("pattern", SUCCESS_PATTERNS)
def test_fringe_scan_bits_do_not_depend_on_the_grid_container(pattern):
    """One phase grid as a list, a float array or a generator scans to the
    same bits, and the scan keeps a copy of an array it is passed."""
    grid = np.linspace(0.0, 2 * np.pi, 37)
    reference = fringe_scan(0.2, 2.0, pattern, grid.tolist())
    from_array = fringe_scan(0.2, 2.0, pattern, grid)
    from_generator = fringe_scan(0.2, 2.0, pattern, (phi for phi in grid.tolist()))
    for scan in (from_array, from_generator):
        assert scan.phases.tobytes() == reference.phases.tobytes()
        assert scan.values.tobytes() == reference.values.tobytes()
    grid += 1.0
    assert from_array.phases.tobytes() == reference.phases.tobytes()


def test_fringe_values_nonnegative_and_periodic():
    scan = fringe_scan(0.3, 1.0, (1, 1, 0), _PHASES)
    assert np.all(scan.values >= -1e-12)
    assert scan.values[0] == pytest.approx(scan.values[-1], abs=1e-10)


# ---------------------------------------------------------------------------
# visibility fitting
# ---------------------------------------------------------------------------


def test_fit_recovers_synthetic_full_contrast():
    phases = np.linspace(0.0, 2 * np.pi, 61)
    scan = FringeScan(phases, 0.5 + 0.5 * np.cos(phases), (1, 1, 0))
    fit = fit_visibility(scan, wavenumber=1)
    assert fit.visibility == pytest.approx(1.0, abs=1e-12)
    assert fit.offset == pytest.approx(0.0, abs=1e-9)


def test_fit_recovers_synthetic_half_contrast_with_offset():
    phases = np.linspace(0.0, 2 * np.pi, 61)
    scan = FringeScan(phases, 0.5 + 0.25 * np.cos(phases - 1.0), (1, 1, 0))
    fit = fit_visibility(scan, wavenumber=1)
    assert fit.visibility == pytest.approx(0.5, abs=1e-12)
    assert wrapped_angle_difference(fit.offset, -1.0) == pytest.approx(0.0, abs=1e-9)
    assert fit.mean == pytest.approx(0.5, abs=1e-12)
    assert fit.amplitude == pytest.approx(0.25, abs=1e-12)


def test_fit_flags_constant_scan():
    phases = np.linspace(0.0, 2 * np.pi, 20)
    fit = fit_visibility(FringeScan(phases, np.full(20, 0.3), (1, 1, 0)), wavenumber=1)
    assert fit.degenerate
    assert fit.visibility == 0.0


def test_fit_needs_a_full_period():
    phases = np.linspace(0.0, 1.0, 30)
    scan = FringeScan(phases, np.cos(phases) + 2.0, (1, 1, 0))
    with pytest.raises(ValueError, match="period"):
        fit_visibility(scan, wavenumber=1)


def test_fringe_scan_validates_grid():
    with pytest.raises(ValueError, match="increasing"):
        FringeScan(np.array([0.0, 0.0, 1.0]), np.zeros(3), (1, 1, 0))
