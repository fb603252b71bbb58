"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Two numeric sub-claims of the original targets are arithmetically
inconsistent with the closed-form gain those same targets pin exactly
(details in the affected tests); they are kept as strict expected
failures so the discrepancy stays visible, with corrected-threshold
companions asserting the true behavior.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    amplified_path_state,
    amplitude,
    fit_visibility,
    fock_state,
    herald_phase,
    ideal_scissor_transform,
)
from qscissor.analysis import (
    fringe_scan,
    hom_coincidence,
    log_negativity,
    negativity_curve,
    path_entangled_state,
)
from qscissor.circuit import apply_mode_unitary, beam_splitter_unitary
from qscissor.scissor import (
    SUCCESS_PATTERNS,
    amplified_mixture_closed_form,
    measured_two_photon_gain,
    run_two_scissor,
    two_photon_gain,
)
from qscissor.sensitivity import (
    LOSS_POINTS,
    first_order_indices,
    saltelli_sample,
    sensitivity_sweep,
)


#: the CLI's defaults: the one herald pattern of gain-sweep and sobol, the
#: fringes phi grid, and sobol's loss range and bootstrap resamples
PATTERN = (1, 1, 0)
PHASES = np.linspace(0.0, 2.0 * np.pi, 101)
LOSS_RANGE = (0.0, 0.5)
RESAMPLES = 1000


def report(number, label):
    print(f"\n[acceptance] criterion {number} ({label}): PASS")


def wrapped_angle_difference(a, b):
    return (a - b + np.pi) % (2 * np.pi) - np.pi


# ---------------------------------------------------------------------------
# 1. full-circuit amplifier vs closed-form transform
# ---------------------------------------------------------------------------


def test_criterion_1_scissor_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(20260809)
    gains = (0.5, 1.0, 2.0, 3.0)
    for trial in range(200):
        amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = gains[trial % len(gains)]
        pattern = SUCCESS_PATTERNS[trial % 3]
        outcome = run_two_scissor(amps, g, pattern)
        coeffs = ideal_scissor_transform(amps / np.linalg.norm(amps), g)
        expected = coeffs * np.exp(1j * herald_phase(pattern) * np.arange(3))
        assert abs(np.vdot(outcome.output, expected)) ** 2 > 1.0 - 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle-equivalence sweep took {elapsed:.1f}s"
    report(1, "two-scissor oracle equivalence")


# ---------------------------------------------------------------------------
# 2. gain closed form
# ---------------------------------------------------------------------------


def test_criterion_2_gain_closed_form():
    # N g^4 exactly, also against the independent counting-model simulation
    for g in (0.5, 2.0, 3.0):
        weights, normalization = amplified_mixture_closed_form(0.05, g)
        assert two_photon_gain(0.05, g) == pytest.approx(
            normalization * g**4, abs=1e-15
        )
        assert measured_two_photon_gain(0.05, g, PATTERN) == pytest.approx(
            two_photon_gain(0.05, g), rel=1e-9
        )

    assert two_photon_gain(0.05, 3.0) == pytest.approx(81.0 / 1.96, abs=1e-12)

    # quartic onset: fraction of variance unexplained by a c*g^4 fit on [0, 1]
    grid = np.linspace(0.0, 1.0, 101)
    gains = np.array([two_photon_gain(0.05, g) for g in grid])
    quartic = grid**4
    c = np.dot(quartic, gains) / np.dot(quartic, quartic)
    residual = np.sum((gains - c * quartic) ** 2) / np.sum(
        (gains - gains.mean()) ** 2
    )
    assert residual < 0.01, f"quartic fit leaves {residual:.2%} of the variance"

    # monotone saturation beyond: gain rises, stays below 1/tau^2, and the
    # quartic-normalized gain decreases
    big = np.linspace(1.0, 80.0, 400)
    values = np.array([two_photon_gain(0.05, g) for g in big])
    assert np.all(np.diff(values) > 0.0)
    assert np.all(values < 400.0)
    normalized = values / big**4
    assert np.all(np.diff(normalized) < 0.0)

    # the asymptote 1/tau^2 = 400 is reached within 1% by g = 62
    assert two_photon_gain(0.05, 62.0) > 0.99 * 400.0
    assert two_photon_gain(0.05, 61.0) < 0.99 * 400.0
    report(2, "gain closed form")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "arithmetically inconsistent with the exact closed form pinned "
        "above: G2(0.05, 40) = 40^4 / (0.9025 + 152 + 6400) = 390.67, "
        "which is 2.33% below 400; the 1% mark is only reached near g = 62 "
        "(the linear 2 g^2 tau (1-tau) term decays as 38 / g^2)"
    ),
)
def test_criterion_2_asymptote_within_one_percent_by_g40():
    print("\n[acceptance] criterion 2 (asymptote within 1% by g=40): FAIL "
          "(expected: target inconsistent with the pinned closed form)")
    assert two_photon_gain(0.05, 40.0) > 0.99 * 400.0


# ---------------------------------------------------------------------------
# 3. entanglement negativity
# ---------------------------------------------------------------------------


def test_criterion_3_negativity_values():
    started = time.monotonic()
    assert log_negativity(path_entangled_state(0.1)) == pytest.approx(
        1.0204, abs=5e-4
    )
    assert log_negativity(amplified_path_state(0.1, 3.0).coefficients) == pytest.approx(
        1.5431, abs=5e-4
    )
    g_grid = np.linspace(0.25, 4.5, 426)  # 0.01 spacing
    for sigma in (0.1, 0.2, 0.5):
        curve = negativity_curve(sigma, g_grid)
        post = np.array([row[2] for row in curve])
        g_peak = g_grid[np.argmax(post)]
        g_star = math.sqrt((1.0 - sigma) / sigma)
        assert abs(g_peak - g_star) <= (g_grid[1] - g_grid[0])
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"negativity checks took {elapsed:.2f}s"
    report(3, "negativity values and peak locations")


# ---------------------------------------------------------------------------
# 4. herald phases and balanced-gain visibility
# ---------------------------------------------------------------------------


def test_criterion_4_herald_phases_and_visibility():
    offsets = [
        fit_visibility(fringe_scan(0.1, 3.0, pattern, PHASES)).offset
        for pattern in SUCCESS_PATTERNS
    ]
    pairwise = [
        wrapped_angle_difference(offsets[i], offsets[j])
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    for delta in pairwise:
        assert min(abs(abs(delta) - 2 * np.pi / 3),
                   abs(abs(delta) - 4 * np.pi / 3)) < 1e-6

    for sigma, g in ((0.5, 1.0), (0.2, 2.0), (0.1, 3.0)):
        fit = fit_visibility(fringe_scan(sigma, g, PATTERN, PHASES))
        assert fit.visibility == pytest.approx(1.0, abs=1e-9)
    report(4, "herald phases and balanced-gain visibility")


# ---------------------------------------------------------------------------
# 5. Hong-Ou-Mandel interference
# ---------------------------------------------------------------------------


def test_criterion_5_hom():
    for theta in np.linspace(0.0, np.pi, 1000):
        assert abs(hom_coincidence(theta) - math.cos(4 * theta) ** 2) <= 1e-15
    split = apply_mode_unitary(fock_state((1, 1), cutoff=2), beam_splitter_unitary(0.5))
    assert abs(amplitude(split, (1, 1))) ** 2 < 1e-12
    report(5, "HOM curve and circuit-level cancellation")


# ---------------------------------------------------------------------------
# 6. success-probability scaling
# ---------------------------------------------------------------------------


def test_criterion_6_success_scaling():
    """The herald probability factorizes as (protocol prefactor) times the
    squared norm of the gain-scaled coefficients.  The second factor is what
    saturates the measured gain at large g, so the g^-4 law is carried by
    the prefactor: it equals the vacuum-input herald probability directly,
    and for any other fixed input it is recovered by dividing out the
    amplified norm."""
    # vacuum input: herald probability * g^4 converges (to 2/9)
    p20 = run_two_scissor([1.0], 20.0, PATTERN).success_probability
    p40 = run_two_scissor([1.0], 40.0, PATTERN).success_probability
    v20, v40 = p20 * 20.0**4, p40 * 40.0**4
    assert abs(v40 - v20) / v20 < 0.01

    # fixed input with full two-photon support: the same prefactor emerges
    # after dividing by the norm of the gain-scaled coefficient vector
    coeffs = np.ones(3) / math.sqrt(3.0)

    def prefactor(g):
        p = run_two_scissor(coeffs, g, PATTERN).success_probability
        scaled_norm_sq = float(np.sum(np.abs(coeffs) ** 2 * g ** (2 * np.arange(3))))
        return p / scaled_norm_sq

    s20, s40 = prefactor(20.0) * 20.0**4, prefactor(40.0) * 40.0**4
    assert abs(s40 - s20) / s20 < 0.01
    assert s20 == pytest.approx(v20, rel=1e-9)  # input independence
    report(6, "success probability scales as 1/g^4")


# ---------------------------------------------------------------------------
# 7. Sobol machinery and the loss model
# ---------------------------------------------------------------------------


def test_criterion_7_sobol_machinery():
    started = time.monotonic()

    # additive benchmark: within 0.02 of the analytic indices at 4096 base
    # samples (seeded statistical check)
    coeffs = np.array([1.0, 1.0, 1.0, 1.0])
    expected = coeffs**2 / coeffs.dot(coeffs)
    additive = lambda x: np.asarray(x) @ coeffs
    for seed in (10, 14, 30):
        res = first_order_indices(
            additive, 4096, seed=seed, dims=4, bounds=(0.0, 1.0),
            bootstrap_resamples=RESAMPLES,
        )
        assert np.max(np.abs(res.indices - expected)) < 0.02

    # Ishigami benchmark within the bootstrap confidence interval
    a, b = 7.0, 0.1

    def ishigami(x):
        x = np.asarray(x)
        return (
            np.sin(x[..., 0])
            + a * np.sin(x[..., 1]) ** 2
            + b * x[..., 2] ** 4 * np.sin(x[..., 0])
        )

    v1 = 0.5 * (1.0 + b * math.pi**4 / 5.0) ** 2
    v2 = a**2 / 8.0
    total = v1 + v2 + 8.0 * b**2 * math.pi**8 / 225.0
    ishigami_expected = np.array([v1 / total, v2 / total, 0.0])
    res = first_order_indices(
        ishigami, 8192, seed=3, dims=3, bounds=(-math.pi, math.pi),
        bootstrap_resamples=RESAMPLES,
    )
    assert np.all(np.abs(res.indices - ishigami_expected) <= res.ci)

    # the published design size: 3840 base samples over 14 loss variables
    # cost exactly 61440 model evaluations
    a_mat, b_mat, hybrids = saltelli_sample(3840, 14, seed=1, bounds=LOSS_RANGE)
    assert a_mat.shape[0] + b_mat.shape[0] + hybrids.shape[0] * hybrids.shape[1] == 61440
    count_check = first_order_indices(
        additive, 3840, seed=1, dims=4, bounds=(0.0, 1.0),
        bootstrap_resamples=RESAMPLES,
    )
    assert count_check.evaluations == 3840 * 6

    # loss model at the full design size
    entries = sensitivity_sweep(
        [1.0, 2.0, 3.0], tau=0.05, n_base=3840, seed=2026, bounds=LOSS_RANGE,
        pattern=PATTERN, bootstrap_resamples=RESAMPLES,
    )
    names = [p.name for p in LOSS_POINTS]
    regions = [p.region for p in LOSS_POINTS]
    for entry in entries:
        s, ci = entry.result.indices, entry.result.ci
        assert entry.result.evaluations == 61440
        assert np.all(s >= -3.0 * ci) and np.all(s <= 1.0 + 3.0 * ci)
        assert s.sum() <= 1.0 + 3.0 * ci.max()
        detector = [s[i] for i in range(len(LOSS_POINTS)) if regions[i] == "detection"]
        assert max(detector) < 0.05
        if entry.g >= 2.0:
            top3 = {names[i] for i in np.argsort(s)[::-1][:3]}
            assert {"L2", "L6"} <= top3, f"top-3 at g={entry.g}: {top3}"

    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"sensitivity checks took {elapsed:.0f}s"
    report(7, "Sobol estimator benchmarks and loss-model structure")


# ---------------------------------------------------------------------------
# 8. purification
# ---------------------------------------------------------------------------


def test_criterion_8_purification_monotone():
    grid = np.linspace(0.0, 100.0, 1001)
    weights = np.array(
        [amplified_mixture_closed_form(0.05, g)[0][2] for g in grid]
    )
    assert np.all(np.diff(weights) > -1e-15)
    # the 0.99 mark is crossed between g = 61.4 and g = 61.5
    assert amplified_mixture_closed_form(0.05, 61.4)[0][2] < 0.99
    assert amplified_mixture_closed_form(0.05, 61.5)[0][2] > 0.99
    assert all(
        amplified_mixture_closed_form(0.05, g)[0][2] > 0.99 for g in (62.0, 70.0, 100.0)
    )
    report(8, "two-photon weight monotone, purified at large gain")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "arithmetically inconsistent with the closed form: at tau = 0.05, "
        "g = 45 the two-photon weight is 10251.56 / (10251.56 + 192.375 + "
        "0.9025) = 0.9815 < 0.99; the 0.99 threshold is crossed near "
        "g = 61.5, not 45"
    ),
)
def test_criterion_8_weight_exceeds_099_by_g45():
    print("\n[acceptance] criterion 8 (0.99 weight by g=45): FAIL "
          "(expected: target inconsistent with the pinned closed form)")
    weights, _ = amplified_mixture_closed_form(0.05, 45.0)
    assert weights[2] > 0.99
