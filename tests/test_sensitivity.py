import math

import numpy as np
import pytest

from qscissor.scissor import SUCCESS_PATTERNS, two_photon_gain
from qscissor.sensitivity import (
    LossLayout,
    LossPoint,
    default_loss_layout,
    first_order_indices,
    lossy_gain_model,
    make_gain_model,
    saltelli_sample,
    sensitivity_sweep,
)


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------


def test_default_layout_has_fourteen_points():
    layout = default_loss_layout()
    assert layout.dims == 14
    regions = [p.region for p in layout.points]
    assert regions.count("post_prep") == 2
    assert regions.count("size_measurement") == 2
    assert regions.count("pre_qft") == 4
    assert regions.count("within_qft") == 3
    assert regions.count("detection") == 3


def test_layout_rejects_unknown_tags():
    with pytest.raises(ValueError):
        LossPoint("L1", "nowhere", "input_post_prep")
    with pytest.raises(ValueError):
        LossPoint("L1", "post_prep", "mystery_role")


def test_layout_role_columns_compose():
    layout = LossLayout(
        (
            LossPoint("a", "post_prep", "input_post_prep"),
            LossPoint("b", "post_prep", "input_post_prep"),
        )
    )
    assert layout.role_columns()["input_post_prep"] == [0, 1]
    # two losses sharing a role compose multiplicatively
    combined = lossy_gain_model(2.0, 0.1, [0.2, 0.25], layout=layout)
    single = lossy_gain_model(2.0, 0.1 * 0.8 * 0.75, [0.0, 0.0], layout=layout)
    assert combined == pytest.approx(single, rel=1e-12)


# ---------------------------------------------------------------------------
# Saltelli sampling
# ---------------------------------------------------------------------------


def test_saltelli_shapes_and_evaluation_count():
    a, b, hybrids = saltelli_sample(3840, 14, seed=1)
    assert a.shape == (3840, 14)
    assert b.shape == (3840, 14)
    assert hybrids.shape == (14, 3840, 14)
    # total model evaluations in the design: N (D + 2)
    assert 3840 * (14 + 2) == 61440


def test_saltelli_hybrid_differs_only_in_one_column():
    a, b, hybrids = saltelli_sample(64, 5, seed=3)
    for i in range(5):
        assert np.array_equal(hybrids[i][:, i], b[:, i])
        mask = np.ones(5, dtype=bool)
        mask[i] = False
        assert np.array_equal(hybrids[i][:, mask], a[:, mask])


def test_saltelli_deterministic_and_in_bounds():
    a1, b1, h1 = saltelli_sample(128, 4, seed=42, bounds=(0.0, 0.5))
    a2, b2, h2 = saltelli_sample(128, 4, seed=42, bounds=(0.0, 0.5))
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert np.array_equal(h1, h2)
    assert a1.min() >= 0.0 and a1.max() <= 0.5


def test_saltelli_rejects_bad_arguments():
    with pytest.raises(ValueError):
        saltelli_sample(1, 3, seed=0)
    with pytest.raises(ValueError):
        saltelli_sample(8, 0, seed=0)
    with pytest.raises(ValueError):
        saltelli_sample(8, 3, seed=0, bounds=(1.0, 0.0))


# ---------------------------------------------------------------------------
# first-order estimator on analytic benchmarks
# ---------------------------------------------------------------------------


def additive_model(coeffs):
    c = np.asarray(coeffs)

    def model(x):
        return np.asarray(x) @ c

    return model


def test_additive_model_indices_match_analytic():
    # for f = sum a_i x_i with iid uniform inputs, S_i = a_i^2 / sum a_j^2;
    # the absolute 0.02 check is a seeded statistical statement (the
    # estimator noise at this sample size sits just below it), the 3-ci
    # check holds regardless of seed
    coeffs = np.array([1.0, 1.0, 1.0, 1.0])
    expected = coeffs**2 / np.sum(coeffs**2)
    for seed in (10, 14, 30):
        res = first_order_indices(
            additive_model(coeffs), 4096, seed=seed, dims=4, bounds=(0.0, 1.0),
            vectorized=True,
        )
        assert np.max(np.abs(res.indices - expected)) < 0.02
        assert np.all(np.abs(res.indices - expected) <= 3.0 * res.ci)
        assert res.evaluations == 4096 * 6


def test_ishigami_indices_within_confidence():
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
    v13 = 8.0 * b**2 * math.pi**8 / 225.0
    total = v1 + v2 + v13
    expected = np.array([v1 / total, v2 / total, 0.0])
    assert expected[0] == pytest.approx(0.3139, abs=5e-4)
    assert expected[1] == pytest.approx(0.4424, abs=5e-4)

    res = first_order_indices(
        ishigami, 8192, seed=7, dims=3, bounds=(-math.pi, math.pi), vectorized=True
    )
    assert np.all(np.abs(res.indices - expected) <= 3.0 * res.ci)
    assert np.max(np.abs(res.indices - expected)) < 0.05


def test_constant_model_raises():
    with pytest.raises(ValueError, match="zero variance"):
        first_order_indices(lambda x: 1.0, 64, seed=0, dims=3)


def test_estimator_bitwise_deterministic():
    model = additive_model(np.array([1.0, 2.0, 3.0]))
    r1 = first_order_indices(model, 256, seed=11, dims=3, vectorized=True)
    r2 = first_order_indices(model, 256, seed=11, dims=3, vectorized=True)
    assert np.array_equal(r1.indices, r2.indices)
    assert np.array_equal(r1.ci, r2.ci)


def test_scalar_model_path_matches_vectorized():
    coeffs = np.array([1.0, -2.0, 0.5])
    vec = first_order_indices(
        additive_model(coeffs), 128, seed=5, dims=3, vectorized=True
    )
    scal = first_order_indices(
        lambda x: float(np.dot(x, coeffs)), 128, seed=5, dims=3, vectorized=False
    )
    assert np.allclose(vec.indices, scal.indices)


# ---------------------------------------------------------------------------
# loss model
# ---------------------------------------------------------------------------


def test_zero_loss_fixed_point_over_grid():
    zeros = np.zeros(14)
    for pattern in SUCCESS_PATTERNS:
        for g in (0.5, 1.0, 2.0, 3.0, 5.0):
            for tau in (0.05, 0.1, 0.3):
                assert lossy_gain_model(
                    g, tau, zeros, pattern=pattern
                ) == pytest.approx(two_photon_gain(tau, g), abs=1e-9, rel=1e-9)


def test_input_post_prep_loss_composes_with_channel():
    losses = np.zeros(14)
    losses[0] = 0.25
    assert lossy_gain_model(2.0, 0.1, losses) == pytest.approx(
        two_photon_gain(0.1 * 0.75, 2.0), rel=1e-10
    )


def test_size_estimation_loss_inflates_gain():
    losses = np.zeros(14)
    losses[1] = 0.3  # input-side counting path (amplifier off)
    inflated = lossy_gain_model(3.0, 0.05, losses)
    assert inflated > two_photon_gain(0.05, 3.0)
    # the input state only looks weaker: the bias is exactly (1 - L2)^-2
    assert inflated == pytest.approx(two_photon_gain(0.05, 3.0) / 0.7**2, rel=1e-10)


def test_output_loss_reduces_gain():
    losses = np.zeros(14)
    losses[5] = 0.3  # output arm after amplification
    reduced = lossy_gain_model(3.0, 0.05, losses)
    assert reduced == pytest.approx(two_photon_gain(0.05, 3.0) * 0.7**2, rel=1e-10)


def test_ancilla_loss_reduces_gain():
    losses = np.zeros(14)
    losses[3] = 0.2  # resource beam after preparation
    assert lossy_gain_model(3.0, 0.05, losses) < two_photon_gain(0.05, 3.0)


def test_batch_matches_scalar_calls():
    rng = np.random.default_rng(9)
    batch = rng.uniform(0.0, 0.5, size=(8, 14))
    batched = lossy_gain_model(2.0, 0.05, batch)
    single = np.array([lossy_gain_model(2.0, 0.05, row) for row in batch])
    assert np.allclose(batched, single, rtol=1e-12)


def test_loss_model_validates_input():
    with pytest.raises(ValueError, match="14"):
        lossy_gain_model(2.0, 0.05, np.zeros(5))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        lossy_gain_model(2.0, 0.05, np.full(14, 1.2))
    with pytest.raises(ValueError):
        lossy_gain_model(-1.0, 0.05, np.zeros(14))
    with pytest.raises(ValueError):
        lossy_gain_model(2.0, 0.0, np.zeros(14))
    with pytest.raises(ValueError, match="success pattern"):
        lossy_gain_model(2.0, 0.05, np.zeros(14), pattern=(2, 0, 0))


# ---------------------------------------------------------------------------
# sweep over gains (reduced sample count; the acceptance suite runs the
# full design size)
# ---------------------------------------------------------------------------


def test_sweep_qualitative_structure():
    layout, entries = sensitivity_sweep(
        [2.0, 3.0], tau=0.05, n_base=512, seed=2026, bootstrap_resamples=200
    )
    names = [p.name for p in layout.points]
    regions = [p.region for p in layout.points]
    for entry in entries:
        s = entry.result.indices
        ci = entry.result.ci
        # indices of a real model stay within statistical bounds of [0, 1]
        assert np.all(s >= -3.0 * ci)
        assert np.all(s <= 1.0 + 3.0 * ci)
        assert s.sum() <= 1.0 + 3.0 * ci.max()
        # detector inefficiencies barely move the conditioned ratio
        detector = [s[i] for i in range(14) if regions[i] == "detection"]
        assert max(detector) < 0.05
        # the two size-estimation points dominate at g >= 2
        top3 = {names[i] for i in np.argsort(s)[::-1][:3]}
        assert {"L2", "L6"} <= top3
