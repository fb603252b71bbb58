import ast
import functools
import itertools
import math
import pathlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import (
    Loss,
    apply_loss,
    basis_enumerate,
    branch_walk,
    fock_state,
    from_pure,
    gain_splitter,
    lossy_two_photon_input,
    mixer_halves,
    norm,
    serial_bootstrap_ci,
)
from qscissor import analysis, circuit, scissor, sensitivity
from qscissor.circuit import fock_transfer_matrix
from qscissor.fock import MixedState, PureState, project_pattern
from qscissor.scissor import (
    SUCCESS_PATTERNS,
    pnr_coincidence_probability,
    two_photon_gain,
)
from qscissor.sensitivity import (
    LOSS_POINTS,
    first_order_indices,
    lossy_gain_model,
    saltelli_sample,
    sensitivity_sweep,
)

#: the CLI's sobol defaults, passed wherever a test does not vary them
TAU = 0.05
PATTERN = (1, 1, 0)
LOSS_RANGE = (0.0, 0.5)
RESAMPLES = 1000


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------


def test_default_layout_has_fourteen_points():
    assert len(LOSS_POINTS) == 14
    regions = [p.region for p in LOSS_POINTS]
    assert regions.count("post_prep") == 2
    assert regions.count("size_measurement") == 2
    assert regions.count("pre_qft") == 4
    assert regions.count("within_qft") == 3
    assert regions.count("detection") == 3


def test_layout_role_columns_compose():
    assert sensitivity._ROLE_COLUMNS["input_pre_qft"] == [2, 6]  # L3 and L7
    # two losses sharing a role compose multiplicatively
    both, one = np.zeros(14), np.zeros(14)
    both[[2, 6]] = 0.2, 0.25
    one[2] = 1.0 - 0.8 * 0.75
    combined = lossy_gain_model(2.0, 0.1, both, pattern=PATTERN)
    single = lossy_gain_model(2.0, 0.1, one, pattern=PATTERN)
    assert combined == pytest.approx(single, rel=1e-12)


# ---------------------------------------------------------------------------
# Saltelli sampling
# ---------------------------------------------------------------------------


def test_saltelli_shapes_and_evaluation_count():
    a, b, hybrids = saltelli_sample(3840, 14, seed=1, bounds=LOSS_RANGE)
    assert a.shape == (3840, 14)
    assert b.shape == (3840, 14)
    assert hybrids.shape == (14, 3840, 14)
    # total model evaluations in the design: N (D + 2)
    assert 3840 * (14 + 2) == 61440


def test_saltelli_hybrid_differs_only_in_one_column():
    a, b, hybrids = saltelli_sample(64, 5, seed=3, bounds=LOSS_RANGE)
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
        saltelli_sample(1, 3, seed=0, bounds=LOSS_RANGE)
    with pytest.raises(ValueError):
        saltelli_sample(8, 0, seed=0, bounds=LOSS_RANGE)
    with pytest.raises(ValueError):
        saltelli_sample(8, 3, seed=0, bounds=(1.0, 0.0))
    for seed in (1.5, np.float64(2.0), -1):  # each seeded entry point
        with pytest.raises(ValueError, match="seed|non-negative"):
            saltelli_sample(8, 3, seed=seed, bounds=LOSS_RANGE)
        with pytest.raises(ValueError, match="seed|non-negative"):
            first_order_indices(
                additive_model([1.0, 2.0]), 8, seed=seed, dims=2, bounds=LOSS_RANGE,
                bootstrap_resamples=RESAMPLES,
            )
        with pytest.raises(ValueError, match="seed|non-negative"):
            sensitivity_sweep(
                [1.0], TAU, n_base=8, seed=seed, bounds=LOSS_RANGE, pattern=PATTERN,
                bootstrap_resamples=RESAMPLES,
            )


# ---------------------------------------------------------------------------
# first-order estimator on analytic benchmarks
# ---------------------------------------------------------------------------


def make_gain_model(g, tau, pattern=(1, 1, 0)):
    """``lossy_gain_model`` at one gain as a batched model of the losses."""
    return functools.partial(lossy_gain_model, g, tau, pattern=pattern)


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
            bootstrap_resamples=RESAMPLES,
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
        ishigami, 8192, seed=7, dims=3, bounds=(-math.pi, math.pi),
        bootstrap_resamples=RESAMPLES,
    )
    assert np.all(np.abs(res.indices - expected) <= 3.0 * res.ci)
    assert np.max(np.abs(res.indices - expected)) < 0.05


def test_constant_model_raises():
    with pytest.raises(ValueError, match="zero variance"):
        first_order_indices(
            lambda x: np.ones(len(x)), 64, seed=0, dims=3, bounds=LOSS_RANGE,
            bootstrap_resamples=RESAMPLES,
        )


@pytest.mark.parametrize("resamples", [0, 1, -3])
def test_library_rejects_fewer_than_two_resamples(resamples):
    # one resample has no spread (and zero or fewer no draws): the ci would
    # be NaN or numpy would fail on a negative shape
    message = f"at least 2, got {resamples}"
    with pytest.raises(ValueError, match=message):
        first_order_indices(
            additive_model([1.0, 2.0]), 64, seed=0, dims=2, bounds=LOSS_RANGE,
            bootstrap_resamples=resamples,
        )
    with pytest.raises(ValueError, match=message):
        sensitivity_sweep(
            [1.0], TAU, n_base=64, seed=0, bounds=LOSS_RANGE, pattern=PATTERN,
            bootstrap_resamples=resamples,
        )


def test_estimator_bitwise_deterministic():
    model = additive_model(np.array([1.0, 2.0, 3.0]))
    kwargs = dict(seed=11, dims=3, bounds=LOSS_RANGE, bootstrap_resamples=RESAMPLES)
    r1 = first_order_indices(model, 256, **kwargs)
    r2 = first_order_indices(model, 256, **kwargs)
    assert np.array_equal(r1.indices, r2.indices)
    assert np.array_equal(r1.ci, r2.ci)


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
        model, n_base, seed=19, dims=dims, bounds=bounds, bootstrap_resamples=RESAMPLES
    )
    expected = reference_bootstrap_ci(model, n_base, 19, dims, bounds, RESAMPLES)
    np.testing.assert_allclose(res.ci, expected, rtol=1e-12, atol=0.0)


#: base sample counts of the bitwise bootstrap checks: at 3,000 the 1,000
#: resamples take five blocks of 174 and one of 130
BITWISE_N_BASE = [16, 32, 3000]


@pytest.mark.parametrize("n_base", BITWISE_N_BASE)
def test_bootstrap_is_the_serial_loop_bit_for_bit(n_base):
    model, dims, seed = additive_model([1.0, -0.5, 2.0, 0.25]), 4, 23
    res = first_order_indices(
        model, n_base, seed=seed, dims=dims, bounds=LOSS_RANGE,
        bootstrap_resamples=RESAMPLES,
    )
    a, b, hybrids = saltelli_sample(n_base, dims, seed, LOSS_RANGE)
    design = np.stack([model(points) for points in [a, b, *hybrids]])
    block_bytes = sensitivity._BOOTSTRAP_BLOCK_BYTES
    (expected,) = serial_bootstrap_ci([design], seed, RESAMPLES, block_bytes)
    assert np.array_equal(res.ci, expected)


@pytest.mark.parametrize("n_base", BITWISE_N_BASE)
def test_shared_sweep_bootstrap_is_the_serial_loop_bit_for_bit(n_base):
    gains, seed = [0.5, 1.0, 2.0], 6
    assert sensitivity._gains_per_group(n_base, len(LOSS_POINTS), RESAMPLES) >= 3
    entries = sensitivity_sweep(
        gains, TAU, n_base=n_base, seed=seed, bounds=LOSS_RANGE, pattern=PATTERN,
        bootstrap_resamples=RESAMPLES,
    )
    a, b = sensitivity._base_samples(n_base, len(LOSS_POINTS), seed, LOSS_RANGE)
    designs = sensitivity._design_values(gains, TAU, a, b, PATTERN)
    block_bytes = sensitivity._BOOTSTRAP_BLOCK_BYTES
    expected = serial_bootstrap_ci(designs, seed, RESAMPLES, block_bytes)
    for entry, ci in zip(entries, expected, strict=True):
        assert np.array_equal(entry.result.ci, ci)


def _bootstrap_pass():
    """One ``_indices_from_values`` pass over two models' designs."""
    rng = np.random.default_rng(2)
    designs = [rng.uniform(size=(6, 64)) for _ in range(2)]
    return sensitivity._indices_from_values(designs, 4, RESAMPLES)


def test_bootstrap_draw_thread_ends_with_the_pass(monkeypatch):
    before = threading.active_count()
    assert len(_bootstrap_pass()) == 2
    assert threading.active_count() == before
    with pytest.raises(ValueError, match="zero variance"):
        sensitivity._indices_from_values([np.ones((6, 64))], 4, RESAMPLES)
    assert threading.active_count() == before
    # blocks of 8 resamples: the pass spans many hand-overs
    monkeypatch.setattr(sensitivity, "_BOOTSTRAP_BLOCK_BYTES", 8 * 8 * 64)
    assert len(_bootstrap_pass()) == 2
    assert threading.active_count() == before


def test_failed_resample_block_stops_the_draw_thread(monkeypatch):
    before, alive = threading.active_count(), []
    resample = sensitivity._resample_indices

    def failing(*args):
        alive.append(threading.active_count())
        if len(alive) == 3:
            raise RuntimeError("resample failed")
        return resample(*args)

    monkeypatch.setattr(sensitivity, "_BOOTSTRAP_BLOCK_BYTES", 8 * 8 * 64)
    monkeypatch.setattr(sensitivity, "_resample_indices", failing)
    with pytest.raises(RuntimeError, match="resample failed"):
        _bootstrap_pass()
    assert alive == [before + 1] * 3  # the draws ran beside the matmuls
    assert threading.active_count() == before


def test_bootstrap_hand_over_holds_under_fast_thread_switching(monkeypatch):
    # four passes at once, each with its draw thread: more threads than cores,
    # switching every microsecond, and each pass still the serial bits
    block_bytes = 8 * 8 * 64  # 25 blocks of 8 resamples
    monkeypatch.setattr(sensitivity, "_BOOTSTRAP_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(5)
    designs = [[rng.uniform(size=(6, 64)) for _ in range(2)] for _ in range(4)]
    expected = [
        serial_bootstrap_ci(d, seed, 200, block_bytes) for seed, d in enumerate(designs)
    ]
    results = [None] * len(designs)

    def run(seed):
        results[seed] = sensitivity._indices_from_values(designs[seed], seed, 200)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(designs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(results, expected, strict=True):
        assert [r.ci.tobytes() for r in got] == [ci.tobytes() for ci in want]


@pytest.mark.parametrize("failing_block", [0, 2])
def test_failed_draw_reaches_the_caller(monkeypatch, failing_block):
    before, blocks = threading.active_count(), []
    draw = sensitivity._draw_counts

    def failing(rng, counts):
        blocks.append(threading.current_thread())
        if len(blocks) > failing_block:
            raise RuntimeError("draw failed")
        draw(rng, counts)

    monkeypatch.setattr(sensitivity, "_BOOTSTRAP_BLOCK_BYTES", 8 * 8 * 64)
    monkeypatch.setattr(sensitivity, "_draw_counts", failing)
    with pytest.raises(RuntimeError, match="draw failed"):
        _bootstrap_pass()
    assert threading.main_thread() not in blocks
    assert threading.active_count() == before


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
    first, second = mixer_halves()
    steps = [
        Loss(0, tau * t[0] * t[2] * t[6]),  # channel, L1, L3, L7 on the input
        Loss(1, t[3]),  # L4: resource after preparation
        gain_splitter(g),
        Loss(1, t[4] * t[7]),  # L5, L8: resource arm entering the mixer
        first,
        Loss(0, t[8]),  # L9-L11: between the mixer halves
        Loss(1, t[9]),
        Loss(3, t[10]),
        second,
        Loss(0, t[11]),  # L12-L14: herald detector efficiencies
        Loss(1, t[12]),
        Loss(3, t[13]),
    ]
    state = from_pure(fock_state((2, 2, 0, 0), cutoff=4))
    basis = basis_enumerate(4, 4)
    index = {occ: i for i, occ in enumerate(basis)}
    for step in steps:
        if isinstance(step, Loss):
            state = apply_loss(state, step.mode, step.transmission)
            continue
        # apply_mode_unitary on each component, with one matrix for them all
        transfer, components = fock_transfer_matrix(step, 4), []
        for w, s in state.components:
            vec = np.zeros(len(basis), dtype=complex)
            for occ, amp in s.amplitudes.items():
                vec[index[occ]] = amp
            amps = {occ: a for occ, a in zip(basis, transfer @ vec) if abs(a) > 0.0}
            components.append((w, PureState(4, amps, cutoff=4)))
        state = MixedState(components)
    heralded = [
        (w, project_pattern(s, (0, 1, 3), pattern)[0]) for w, s in state.components
    ]
    herald = sum(w * norm(s) ** 2 for w, s in heralded)
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
    # the gain and channel limits: gains from the smallest nonzero one the CLI
    # takes to the largest, a channel that keeps almost nothing or everything
    for seed, (g, tau) in enumerate(itertools.product((1e-25, 1e-6, 1e6), (1e-100, 1.0))):
        losses = np.random.default_rng(seed).uniform(0.0, 0.5, size=14)
        assert lossy_gain_model(g, tau, losses, pattern=pattern) == pytest.approx(
            dict_engine_gain(g, tau, losses, pattern), rel=1e-10
        ), (g, tau)


@pytest.mark.parametrize("g", [0.0, 1e-6, 1.0, 6.0, 1e6])
@pytest.mark.parametrize("pattern", SUCCESS_PATTERNS)
def test_walk_matches_per_branch_reference(pattern, g):
    losses = np.random.default_rng(17).uniform(0.0, 1.0, size=(64, 14))
    walked = [4, 7, 8, 9, 10]  # L5, L8 (resource arm), L9-L11 (inside the mixer)
    for i, column in enumerate(walked):  # one walked loss at 0, then at 1
        losses[2 * i, column] = 0.0
        losses[2 * i + 1, column] = 1.0
    losses[10, walked] = 0.0  # every walked loss at 0, then at 1
    losses[11, walked] = 1.0
    losses[12, [4, 7]] = 1.0  # the resource arm fully lost, the mixer lossless
    losses[12, 8:11] = 0.0
    tr = 1.0 - losses.T
    t_anc, t_internal = tr[4] * tr[7], [tr[8], tr[9], tr[10]]
    walk = sensitivity._walk_matrix(pattern)
    split = walk.classes[walk.row_class]
    ((_, work),) = sensitivity._chunks(pattern, 64)
    rows = sensitivity._branch_walk(pattern, t_anc, t_internal, work, work.weight)
    rows = rows * (scissor._gain_factor(g, split[:, 0], split[:, 1]) ** 2)[:, None]
    # every row added to its start's share of its POVM row, as the oracle lays
    # them out: per sector, [starts, heraldable rows, samples]
    want = np.concatenate(branch_walk(pattern, g, t_anc, t_internal), axis=1)
    got = np.zeros_like(want)
    np.add.at(got, (walk.start, walk.povm_row), rows)
    got, want = got.reshape(-1, 64), want.reshape(-1, 64)
    # per sample, within 1e-13 of its largest row (exact where all rows are 0)
    assert np.all(np.abs(got - want) <= 1e-13 * want.max(axis=0))
    assert np.any(want.max(axis=0) == 0.0) and np.any(want.max(axis=0) > 0.0)


@pytest.mark.parametrize(
    "pattern,columns", [((1, 1, 0), 27), ((1, 0, 1), 24), ((0, 1, 1), 24)]
)
def test_walk_rows_each_hold_one_splitter_class(pattern, columns):
    # the sweep prices every gain from one g = 1 walk because each row's
    # terms share one (transmitted, reflected) pair through the gain splitter
    walk = sensitivity._walk_matrix(pattern)
    assert walk.parts.shape == (2, 55, columns)
    assert sorted(map(tuple, walk.classes.tolist())) == [
        (n, j) for n in range(3) for j in range(3 - n)
    ]
    # per entry: n = k lost + p kept resource photons, j = b - n reflected
    k = walk.lost[walk.lost_kind, 0][:, None]
    transmitted = k + walk.kept[:, 0][None, :]
    reflected = (walk.start % 3)[:, None] - transmitted
    own = walk.classes[walk.row_class]
    nonzero = (walk.parts[0] != 0.0) | (walk.parts[1] != 0.0)
    assert np.all(nonzero.any(axis=1))
    assert np.all((transmitted == own[:, :1]) | ~nonzero)
    assert np.all((reflected == own[:, 1:]) | ~nonzero)


@pytest.mark.parametrize("slot", range(4))
def test_loss_step_is_trace_preserving(slot):
    # the Kraus branches of one walked loss, each weighted by its lost photons'
    # (1 - t)^k, keep the norm of any state of any sector at any transmission
    rng = np.random.default_rng(slot)
    sectors = circuit.fock_sectors(sensitivity._MODES, sensitivity._PHOTONS)
    for photons, sector in enumerate(sectors):
        rows = np.arange(len(sector))
        coefs = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
        keys = np.zeros(rows.size, dtype=int)
        state = sensitivity._Branch(0, (0,) * slot, photons, rows, keys, coefs)
        for t in (0.0, rng.uniform(), 1.0):
            norm = 0.0
            for k in range(photons + 1):
                branch = sensitivity._lose(state, slot, k)
                kept = branch.keys // sensitivity._BASE**slot  # sqrt(t)'s power
                amplitude = np.zeros(len(sectors[photons - k]), complex)
                np.add.at(amplitude, branch.rows, branch.coefs * np.sqrt(t) ** kept)
                norm += (1.0 - t) ** k * np.sum(np.abs(amplitude) ** 2)
            assert norm == pytest.approx(np.sum(np.abs(coefs) ** 2), rel=1e-13)


def test_oracles_import_nothing_from_the_engine():
    # a reference built on the engine's own code cannot catch its mistakes
    tree = ast.parse((pathlib.Path(__file__).parent / "oracles.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    assert "qscissor.circuit.fock_transfer_matrix" in names
    engine = "qscissor.sensitivity"
    assert [n for n in names if n == engine or n.startswith(engine + ".")] == []


def test_distinct_gains_build_no_tables(monkeypatch):
    for pattern in SUCCESS_PATTERNS:  # warm every per-pattern table
        scissor.measured_two_photon_gain(0.05, 1.0, pattern)
        lossy_gain_model(1.0, 0.05, np.zeros(14), pattern=pattern)
    builds = []

    def counted(*args):
        builds.append(args)
        return circuit.sector_transfer_blocks(*args)

    for module in (scissor, analysis, sensitivity):
        monkeypatch.setattr(module, "sector_transfer_blocks", counted)
    for g in np.geomspace(1e-6, 1e6, 50):  # distinct gains
        for pattern in SUCCESS_PATTERNS:
            scissor.measured_two_photon_gain(0.05, g, pattern)
            lossy_gain_model(g, 0.05, np.full(14, 0.1), pattern=pattern)
    assert builds == []
    assert scissor._herald_table.cache_info().currsize == 1
    assert sensitivity._walk_matrix.cache_info().currsize <= 3
    walk = sensitivity._walk_matrix((1, 1, 0))
    tables = [scissor._herald_table()[(1, 1, 0)], scissor._coincidence_row()]
    tables += [v for v in vars(walk).values() if isinstance(v, np.ndarray)]
    assert len(tables) == 12
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0.0


@pytest.mark.parametrize(
    "g,loss",
    [(-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan)],
    ids=["negative-gain", "nan-gain", "inf-gain", "nan-loss"],
)
def test_library_rejects_bad_gain_and_nan_loss(g, loss):
    with pytest.raises(ValueError):
        lossy_gain_model(g, 0.05, np.full(14, loss), pattern=PATTERN)
    if not math.isnan(loss):
        with pytest.raises(ValueError, match=r"outside \[0\.0, 1000000\.0\]"):
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
    assert lossy_gain_model(2.0, 0.1, losses, pattern=PATTERN) == pytest.approx(
        two_photon_gain(0.1 * 0.75, 2.0), rel=1e-10
    )


def test_size_estimation_loss_inflates_gain():
    losses = np.zeros(14)
    losses[1] = 0.3  # input-side counting path (amplifier off)
    inflated = lossy_gain_model(3.0, 0.05, losses, pattern=PATTERN)
    assert inflated > two_photon_gain(0.05, 3.0)
    # the input state only looks weaker: the bias is exactly (1 - L2)^-2
    assert inflated == pytest.approx(two_photon_gain(0.05, 3.0) / 0.7**2, rel=1e-10)


def test_output_loss_reduces_gain():
    losses = np.zeros(14)
    losses[5] = 0.3  # output arm after amplification
    reduced = lossy_gain_model(3.0, 0.05, losses, pattern=PATTERN)
    assert reduced == pytest.approx(two_photon_gain(0.05, 3.0) * 0.7**2, rel=1e-10)


def test_ancilla_loss_reduces_gain():
    losses = np.zeros(14)
    losses[3] = 0.2  # resource beam after preparation
    assert lossy_gain_model(3.0, 0.05, losses, PATTERN) < two_photon_gain(0.05, 3.0)


def test_batch_matches_scalar_calls():
    rng = np.random.default_rng(9)
    batch = rng.uniform(0.0, 0.5, size=(8, 14))
    batched = lossy_gain_model(2.0, 0.05, batch, pattern=PATTERN)
    single = np.array([lossy_gain_model(2.0, 0.05, row, PATTERN) for row in batch])
    assert np.allclose(batched, single, rtol=1e-12)


def test_loss_model_validates_input():
    with pytest.raises(ValueError, match="14"):
        lossy_gain_model(2.0, 0.05, np.zeros(5), pattern=PATTERN)
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        lossy_gain_model(2.0, 0.05, np.full(14, 1.2), pattern=PATTERN)
    with pytest.raises(ValueError):
        lossy_gain_model(-1.0, 0.05, np.zeros(14), pattern=PATTERN)
    with pytest.raises(ValueError):
        lossy_gain_model(2.0, 0.0, np.zeros(14), pattern=PATTERN)
    with pytest.raises(ValueError, match="success pattern"):
        lossy_gain_model(2.0, 0.05, np.zeros(14), pattern=(2, 0, 0))


# ---------------------------------------------------------------------------
# sweep over gains (reduced sample count; the acceptance suite runs the
# full design size)
# ---------------------------------------------------------------------------


def record_design_values(monkeypatch):
    """Capture the (f_a, f_b, f_hyb) every estimate is computed from."""
    seen = []
    estimator = sensitivity._indices_from_values

    def recording(values, *args):
        values = list(values)
        seen.extend((v[0].copy(), v[1].copy(), v[2:].copy()) for v in values)
        return estimator(values, *args)

    monkeypatch.setattr(sensitivity, "_indices_from_values", recording)
    return seen


@pytest.mark.parametrize("dims", [len(LOSS_POINTS)], ids=["default"])
@pytest.mark.parametrize("pattern", SUCCESS_PATTERNS)
def test_sweep_matches_generic_estimator(monkeypatch, pattern, dims):
    # 1500 base rows: one full _CHUNK block and a partial one
    n_base, seed, g = 1500, 31, 2.0
    assert n_base % sensitivity._CHUNK != 0
    seen = record_design_values(monkeypatch)
    (entry,) = sensitivity_sweep(
        [g], TAU, n_base=n_base, seed=seed, bounds=LOSS_RANGE, pattern=pattern,
        bootstrap_resamples=200,
    )
    expected = first_order_indices(
        make_gain_model(g, 0.05, pattern=pattern),
        n_base, seed, dims=dims, bounds=LOSS_RANGE, bootstrap_resamples=200,
    )
    (swept, generic) = seen
    for got, want in zip(swept, generic):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(entry.result.indices, expected.indices, rtol=0, atol=1e-12)
    np.testing.assert_allclose(entry.result.ci, expected.ci, rtol=0, atol=1e-12)
    assert entry.result.evaluations == expected.evaluations == n_base * (dims + 2)

    (rerun,) = sensitivity_sweep(
        [g], TAU, n_base=n_base, seed=seed, bounds=LOSS_RANGE, pattern=pattern,
        bootstrap_resamples=200,
    )
    assert rerun.result.indices.tobytes() == entry.result.indices.tobytes()
    assert rerun.result.ci.tobytes() == entry.result.ci.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(seen[2], swept))


@pytest.mark.parametrize(
    "dims,walked",
    # walked: A, B and the hybrids on L5, L8, L9-L11
    [(len(LOSS_POINTS), 7)],
    ids=["default-7"],
)
def test_sweep_walks_only_columns_inside_the_walk(monkeypatch, dims, walked):
    rows = 0
    walk = sensitivity._branch_walk

    def counted_walk(pattern, t_anc, t_internal, *work_and_out):
        nonlocal rows
        rows += t_anc.shape[0]
        assert all(t.shape == t_anc.shape for t in t_internal)
        return walk(pattern, t_anc, t_internal, *work_and_out)

    monkeypatch.setattr(sensitivity, "_branch_walk", counted_walk)
    n_base, resamples = 1100, 20
    held = 8 * (n_base * (2 * dims + 2) + resamples * dims)
    budget = sensitivity._BOOTSTRAP_BLOCK_BYTES
    # (gains, bootstrap budget, groups): the last shares a pass two gains a time
    for gains, budget, groups in (
        ([1.0], budget, 1),
        ([1.0, 3.0, 0.5], budget, 1),
        ([1.0] * 5, 2 * held, 3),
    ):
        monkeypatch.setattr(sensitivity, "_BOOTSTRAP_BLOCK_BYTES", budget)
        rows = 0
        entries = sensitivity_sweep(
            gains, TAU, n_base=n_base, seed=4, bounds=LOSS_RANGE, pattern=PATTERN,
            bootstrap_resamples=resamples,
        )
        # once per design block and bootstrap group, whatever the number of gains
        assert rows == walked * n_base * groups
        assert len(entries) == len(gains)
        assert all(e.result.evaluations == n_base * (dims + 2) for e in entries)


def test_reused_working_arrays_keep_no_state_between_sweeps(monkeypatch):
    # three chunks, the last partial: its working arrays are narrower views
    # of the buffer the full chunks used
    n_base = 2 * sensitivity._CHUNK + 100
    seen = record_design_values(monkeypatch)
    kwargs = dict(
        tau=TAU, n_base=n_base, bounds=LOSS_RANGE, pattern=PATTERN, bootstrap_resamples=20
    )
    runs = [sensitivity_sweep([0.5, 2.0], seed=seed, **kwargs) for seed in (1, 2, 1)]
    first, second, again = (seen[2 * i : 2 * i + 2] for i in range(3))
    for before, after, other in zip(first, again, second):
        assert all(b.tobytes() == a.tobytes() for b, a in zip(before, after))
        assert not np.array_equal(before[0], other[0])
    for before, after in zip(runs[0], runs[2]):
        assert before.result.indices.tobytes() == after.result.indices.tobytes()
        assert before.result.ci.tobytes() == after.result.ci.tobytes()


def test_sweep_rejects_an_empty_gain_grid():
    with pytest.raises(ValueError, match="gain grid"):
        sensitivity_sweep(
            [], tau=5.0, n_base=3840, seed=0, bounds=LOSS_RANGE, pattern=(2, 0, 0),
            bootstrap_resamples=RESAMPLES,
        )


def test_role_classes_partition_loss_roles():
    classes = (
        sensitivity._WALKED_ROLES,
        sensitivity._START_WEIGHT_ROLES,
        sensitivity._DETECTOR_ROLES,
        sensitivity._SCALAR_ROLES,
    )
    for role in sensitivity._ROLE_COLUMNS:
        assert sum(role in c for c in classes) == 1, role
    assert sorted(r for c in classes for r in c) == sorted(sensitivity._ROLE_COLUMNS)


@pytest.mark.parametrize(
    "per_block",
    # start weights of A, B and L1, L3, L4, L7; detector factors of A, B and
    # L12-L14; POVM sums of every point but the L2 and L6 hybrids, which take
    # A's sums whole
    [{"weights": 6, "detector": 5, "sums": 14}],
    ids=["default-per_block0"],
)
def test_sweep_prices_povm_pieces_by_role_class(monkeypatch, per_block):
    calls = dict.fromkeys(per_block, 0)
    pieces = {
        "weights": "_start_weights",
        "detector": "_detector_factors",
        "sums": "_povm_sums",
    }
    for key, name in pieces.items():
        def counted(*args, _key=key, _piece=getattr(sensitivity, name)):
            calls[_key] += 1
            return _piece(*args)

        monkeypatch.setattr(sensitivity, name, counted)
    n_base = 1100
    blocks = -(-n_base // sensitivity._CHUNK)
    for gains in ([2.0], [1.0, 3.0, 0.5]):  # per block, whatever the gains
        calls.update(dict.fromkeys(per_block, 0))
        sensitivity_sweep(
            gains, TAU, n_base=n_base, seed=4, bounds=LOSS_RANGE, pattern=PATTERN,
            bootstrap_resamples=20,
        )
        assert calls == {key: count * blocks for key, count in per_block.items()}


def record_group_sizes(monkeypatch):
    """Capture how many gains each bootstrap pass resamples together."""
    sizes = []
    estimator = sensitivity._indices_from_values

    def recording(values, *args):
        values = list(values)
        sizes.append(len(values))
        return estimator(values, *args)

    monkeypatch.setattr(sensitivity, "_indices_from_values", recording)
    return sizes


@pytest.mark.parametrize("group,expected_sizes", [(1, [1] * 5), (2, [2, 2, 1]), (5, [5])])
def test_shared_bootstrap_draws_match_single_gain_sweeps(
    monkeypatch, group, expected_sizes
):
    n_base, dims, resamples = 64, 14, 50
    held = 8 * (n_base * (2 * dims + 2) + resamples * dims)
    # the same budget also blocks the draws: 40, 81 or 204 resamples a block
    monkeypatch.setattr(sensitivity, "_BOOTSTRAP_BLOCK_BYTES", group * held)
    sizes = record_group_sizes(monkeypatch)
    gains = [0.5, 1.0, 2.0, 3.0, 5.0]
    kwargs = dict(
        tau=TAU, n_base=n_base, seed=8, bounds=LOSS_RANGE, pattern=PATTERN,
        bootstrap_resamples=resamples,
    )
    shared = sensitivity_sweep(gains, **kwargs)
    assert sizes == expected_sizes
    for g, entry in zip(gains, shared):
        (alone,) = sensitivity_sweep([g], **kwargs)
        assert entry.g == alone.g == g
        assert entry.result.indices.tobytes() == alone.result.indices.tobytes()
        assert entry.result.ci.tobytes() == alone.result.ci.tobytes()
    rerun = sensitivity_sweep(gains, **kwargs)
    for first, second in zip(shared, rerun):
        assert first.result.indices.tobytes() == second.result.indices.tobytes()
        assert first.result.ci.tobytes() == second.result.ci.tobytes()


def test_sweep_memory_is_bounded_by_one_group():
    # at n_base 64 a gain holds about 125 KB through its bootstrap pass, so
    # 32 gains fill one budget and 40 gains take two passes
    kwargs = dict(n_base=64, bounds=LOSS_RANGE, pattern=PATTERN)
    sensitivity_sweep([1.0], TAU, seed=0, bootstrap_resamples=10, **kwargs)  # warm tables

    def traced(gains):
        tracemalloc.start()
        try:
            entries = sensitivity_sweep(
                gains, TAU, seed=3, bootstrap_resamples=RESAMPLES, **kwargs
            )
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(entries) == len(gains)
        return peak, kept

    peak_few, kept_few = traced([1.0, 2.0])
    peak_many, kept_many = traced(list(np.linspace(0.5, 4.0, 40)))
    assert sensitivity._gains_per_group(64, 14, 1000) < 40
    # kept: the SobolResults still alive when the sweep returns
    assert peak_many - peak_few < sensitivity._BOOTSTRAP_BLOCK_BYTES + kept_many - kept_few


def test_sweep_qualitative_structure():
    entries = sensitivity_sweep(
        [2.0, 3.0], tau=0.05, n_base=512, seed=2026, bounds=LOSS_RANGE, pattern=PATTERN,
        bootstrap_resamples=200,
    )
    names = [p.name for p in LOSS_POINTS]
    regions = [p.region for p in LOSS_POINTS]
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
