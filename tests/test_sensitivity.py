import math

import numpy as np
import pytest

from oracles import Loss, apply_loss
from qscissor import circuit, scissor, sensitivity
from qscissor.circuit import (
    BeamSplitter,
    PhaseShift,
    apply_mode_unitary,
    compile_circuit,
)
from qscissor.fock import MixedState, fock_state, project_pattern
from qscissor.scissor import (
    SUCCESS_PATTERNS,
    gain_to_transmittance,
    lossy_two_photon_input,
    pnr_coincidence_probability,
    two_photon_gain,
)
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


def reference_bootstrap_ci(model, n_base, seed, dims, bounds, resamples):
    """The paired bootstrap one resample at a time, as the estimator's
    definition reads: draw rows, recompute mean, variance and the V_i."""
    a, b, hybrids = saltelli_sample(n_base, dims, seed, bounds)
    f_a, f_b = model(a), model(b)
    f_hyb = np.stack([model(hybrids[i]) for i in range(dims)])
    all_values = np.concatenate([f_a[None, :], f_b[None, :], f_hyb], axis=0)
    diff = f_hyb - f_a[None, :]
    rng = np.random.default_rng([int(seed), 0xB00])
    rows = all_values.shape[0]
    col_sum = all_values.sum(axis=0)
    col_sq_sum = (all_values**2).sum(axis=0)
    raw_cross = f_b[None, :] * diff
    boot = np.empty((resamples, dims))
    for r in range(resamples):
        idx = rng.integers(0, n_base, size=n_base)
        total = rows * n_base
        mean_r = col_sum[idx].sum() / total
        mean_sq_r = col_sq_sum[idx].sum() / total
        var_r = (mean_sq_r - mean_r**2) * total / (total - 1)
        if var_r <= 0.0:
            boot[r] = 0.0
            continue
        boot[r] = (
            raw_cross[:, idx].mean(axis=1) - mean_r * diff[:, idx].mean(axis=1)
        ) / var_r
    return 1.96 * boot.std(axis=0, ddof=1)


@pytest.mark.parametrize(
    "model,n_base,dims,blocks",
    [
        (additive_model([1.0, 2.0, 3.0]), 256, 3, 1),
        (make_gain_model(2.0, 0.05), 256, 14, 1),
        # 1000 resamples in blocks of 174: five full blocks and one of 130
        (additive_model([1.0, -0.5, 2.0, 0.25]), 3000, 4, 6),
    ],
    ids=["additive", "gain-model", "partial-block"],
)
def test_blocked_bootstrap_matches_per_resample_loop(model, n_base, dims, blocks):
    block = sensitivity._BOOTSTRAP_BLOCK_BYTES // (8 * n_base)
    assert -(-1000 // block) == blocks
    bounds = (0.0, 0.5)
    res = first_order_indices(
        model, n_base, seed=19, dims=dims, bounds=bounds, vectorized=True
    )
    expected = reference_bootstrap_ci(model, n_base, 19, dims, bounds, 1000)
    np.testing.assert_allclose(res.ci, expected, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# loss model
# ---------------------------------------------------------------------------


def dict_engine_gain(g, tau, losses, pattern):
    """Measured gain of the default layout, rebuilt on the dict engine.

    Every tagged loss is an ``apply_loss`` on its mode (losses sharing a
    location compose into one channel), the circuit elements are compiled
    one stage at a time, and the detector efficiencies act before the
    pattern projection.  With the amplifier off the input goes straight to
    the counting stage, so its conditioned rho_22 is the input's own.
    """
    t = 1.0 - np.asarray(losses)
    steps = [
        Loss(0, tau * t[0] * t[2] * t[6]),  # channel, L1, L3, L7 on the input
        Loss(1, t[3]),  # L4: resource after preparation
        compile_circuit([BeamSplitter(1, 2, gain_to_transmittance(g))], 4),
        Loss(1, t[4] * t[7]),  # L5, L8: resource arm entering the mixer
        compile_circuit([BeamSplitter(0, 1, 0.5), BeamSplitter(1, 3, 1.0 / 3.0)], 4),
        Loss(0, t[8]),  # L9-L11: between the mixer halves
        Loss(1, t[9]),
        Loss(3, t[10]),
        compile_circuit(
            [PhaseShift(0, 3.0 * math.pi / 2.0), BeamSplitter(0, 1, 0.5)], 4
        ),
        Loss(0, t[11]),  # L12-L14: herald detector efficiencies
        Loss(1, t[12]),
        Loss(3, t[13]),
    ]
    state = MixedState.from_pure(fock_state((2, 2, 0, 0), cutoff=4))
    for step in steps:
        if isinstance(step, Loss):
            state = apply_loss(state, step.mode, step.transmission)
        else:
            state = MixedState(
                [(w, apply_mode_unitary(s, step)) for w, s in state.components]
            )
    heralded = [
        (w, project_pattern(s, (0, 1, 3), pattern)[0]) for w, s in state.components
    ]
    herald = sum(w * s.norm() ** 2 for w, s in heralded)
    output = apply_loss(MixedState(heralded), 0, t[5])  # L6
    rho22_on = 2.0 * pnr_coincidence_probability(output) / herald
    off_input = lossy_two_photon_input(tau * t[0] * t[1])  # channel, L1, L2
    rho22_off = 2.0 * pnr_coincidence_probability(off_input)
    return rho22_on / rho22_off


@pytest.mark.parametrize("pattern", SUCCESS_PATTERNS)
def test_lossy_model_matches_dict_engine_oracle(pattern):
    for seed, g in ((1, 1.0), (2, 2.0), (3, 3.0)):
        losses = np.random.default_rng(seed).uniform(0.0, 0.9, size=14)
        assert lossy_gain_model(g, 0.05, losses, pattern=pattern) == pytest.approx(
            dict_engine_gain(g, 0.05, losses, pattern), rel=1e-10
        )


def test_distinct_gains_build_no_tables():
    for pattern in SUCCESS_PATTERNS:  # warm every per-pattern table
        scissor.measured_two_photon_gain(0.05, 1.0, pattern)
        lossy_gain_model(1.0, 0.05, np.zeros(14), pattern=pattern)
    before = circuit._transfer.cache_info()
    for g in np.geomspace(1e-6, 1e6, 50):  # distinct gains
        for pattern in SUCCESS_PATTERNS:
            scissor.measured_two_photon_gain(0.05, g, pattern)
            lossy_gain_model(g, 0.05, np.full(14, 0.1), pattern=pattern)
    after = circuit._transfer.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert scissor._herald_amplitudes.cache_info().currsize <= 3
    assert sensitivity._engine_context.cache_info().currsize <= 3
    for table in (scissor._herald_amplitudes((1, 1, 0)), scissor._coincidence_row()):
        with pytest.raises(ValueError):
            table[0] = 0.0


@pytest.mark.parametrize(
    "g,loss",
    [(-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan)],
    ids=["negative-gain", "nan-gain", "inf-gain", "nan-loss"],
)
def test_library_rejects_bad_gain_and_nan_loss(g, loss):
    with pytest.raises(ValueError):
        lossy_gain_model(g, 0.05, np.full(14, loss))
    if not math.isnan(loss):
        with pytest.raises(ValueError, match="gain"):
            scissor.heralded_amplify(fock_state((1,), cutoff=2), 0, g, (1, 1, 0))


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


def shuffled_layout():
    """Nine points out of the default order, two pairs sharing a role and
    four roles left out; four of its columns enter the Kraus-branch walk
    (Q1, Q1b, R, Q0), one of them through the resource amplitudes (R)."""
    return LossLayout(
        (
            LossPoint("D0", "detection", "detector_0"),
            LossPoint("Q1", "within_qft", "qft_internal_1"),
            LossPoint("S", "size_measurement", "input_size_path"),
            LossPoint("Q1b", "within_qft", "qft_internal_1"),
            LossPoint("R", "pre_qft", "ancilla_pre_qft"),
            LossPoint("P", "post_prep", "ancilla_post_prep"),
            LossPoint("I", "post_prep", "input_post_prep"),
            LossPoint("Q0", "within_qft", "qft_internal_0"),
            LossPoint("P2", "post_prep", "ancilla_post_prep"),
        )
    )


def record_design_values(monkeypatch):
    """Capture the (f_a, f_b, f_hyb) every estimate is computed from."""
    seen = []
    estimator = sensitivity._indices_from_values

    def recording(f_a, f_b, f_hyb, *args):
        seen.append((f_a.copy(), f_b.copy(), f_hyb.copy()))
        return estimator(f_a, f_b, f_hyb, *args)

    monkeypatch.setattr(sensitivity, "_indices_from_values", recording)
    return seen


@pytest.mark.parametrize("layout_name", ["default", "shuffled"])
@pytest.mark.parametrize("pattern", SUCCESS_PATTERNS)
def test_sweep_matches_generic_estimator(monkeypatch, pattern, layout_name):
    # 1500 base rows: one full _CHUNK block and a partial one
    layout = default_loss_layout() if layout_name == "default" else shuffled_layout()
    n_base, seed, g = 1500, 31, 2.0
    assert n_base % sensitivity._CHUNK != 0
    seen = record_design_values(monkeypatch)
    _, (entry,) = sensitivity_sweep(
        [g], n_base=n_base, seed=seed, layout=layout, pattern=pattern,
        bootstrap_resamples=200,
    )
    expected = first_order_indices(
        make_gain_model(g, 0.05, layout=layout, pattern=pattern),
        n_base, seed, dims=layout.dims, vectorized=True, bootstrap_resamples=200,
    )
    (swept, generic) = seen
    for got, want in zip(swept, generic):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(entry.result.indices, expected.indices, rtol=0, atol=1e-12)
    np.testing.assert_allclose(entry.result.ci, expected.ci, rtol=0, atol=1e-12)
    assert entry.result.evaluations == expected.evaluations == n_base * (layout.dims + 2)

    _, (rerun,) = sensitivity_sweep(
        [g], n_base=n_base, seed=seed, layout=layout, pattern=pattern,
        bootstrap_resamples=200,
    )
    assert rerun.result.indices.tobytes() == entry.result.indices.tobytes()
    assert rerun.result.ci.tobytes() == entry.result.ci.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(seen[2], swept))


@pytest.mark.parametrize(
    "layout_name,walked,amplitudes",
    # walked: A, B and the hybrids on L5, L8, L9-L11; amplitudes: A, B, L5, L8
    [("default", 7, 4), ("shuffled", 6, 3)],
)
def test_sweep_walks_only_columns_inside_the_walk(
    monkeypatch, layout_name, walked, amplitudes
):
    layout = default_loss_layout() if layout_name == "default" else shuffled_layout()
    rows = {"walk": 0, "amplitudes": 0}
    walk, resource = sensitivity._branch_walk, sensitivity._resource_amplitudes

    def counted_walk(pattern, amps, t_internal):
        rows["walk"] += t_internal[0].shape[0]
        return walk(pattern, amps, t_internal)

    def counted_amplitudes(pattern, g, t_anc):
        rows["amplitudes"] += t_anc.shape[0]
        return resource(pattern, g, t_anc)

    monkeypatch.setattr(sensitivity, "_branch_walk", counted_walk)
    monkeypatch.setattr(sensitivity, "_resource_amplitudes", counted_amplitudes)
    n_base, gains = 1100, [1.0, 3.0]
    _, entries = sensitivity_sweep(
        gains, n_base=n_base, seed=4, layout=layout, bootstrap_resamples=20
    )
    assert rows == {
        "walk": walked * n_base * len(gains),
        "amplitudes": amplitudes * n_base * len(gains),
    }
    assert all(e.result.evaluations == n_base * (layout.dims + 2) for e in entries)


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
