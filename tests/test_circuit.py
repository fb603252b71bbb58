import itertools
import math

import numpy as np
import pytest

from oracles import (
    Loss,
    amplitude,
    apply_loss,
    basis_enumerate,
    density_matrix,
    fock_state,
    from_pure,
    mixture_trace,
    norm,
    normalized,
    photon_number_weights,
    qft_unitary,
    vacuum,
)
from qscissor.circuit import (
    BeamSplitter,
    ModeUnitary,
    PhaseShift,
    apply_mode_unitary,
    beam_splitter_unitary,
    compile_circuit,
    fock_amplitude,
    fock_sectors,
    fock_transfer_matrix,
    permanent,
    sector_rank,
    sector_transfer_blocks,
    tritter_elements,
)
from qscissor.fock import PureState


def haar_unitary(rng, m):
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return ModeUnitary(q * (np.diagonal(r) / np.abs(np.diagonal(r))))


def permanent_bruteforce(matrix):
    """Definition of the permanent: sum over all column permutations."""
    n = matrix.shape[0]
    return sum(
        math.prod(matrix[i, p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


def ladder_amplitude(u, n_in, n_out):
    """<n_out|U|n_in> by expanding the creation-operator polynomial directly.

    Independent of the permanent route: multiplies out
    prod_i (sum_j U[j,i] a_j^dag)^{n_in_i} |0> term by term.
    """
    modes = u.dim
    poly = {(0,) * modes: 1.0 + 0.0j}
    for i, count in enumerate(n_in):
        for _ in range(count):
            new = {}
            for occ, coeff in poly.items():
                for j in range(modes):
                    raised = occ[:j] + (occ[j] + 1,) + occ[j + 1 :]
                    new[raised] = new.get(raised, 0.0) + coeff * u.matrix[j, i]
            poly = new
    coeff = poly.get(tuple(n_out), 0.0)
    norm = math.sqrt(math.prod(math.factorial(n) for n in n_out)) / math.sqrt(
        math.prod(math.factorial(n) for n in n_in)
    )
    return coeff * norm


# ---------------------------------------------------------------------------
# permanent
# ---------------------------------------------------------------------------


def test_permanent_small_cases():
    assert permanent(np.array([[3.0]])) == pytest.approx(3.0)
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert permanent(a) == pytest.approx(1 * 4 + 2 * 3)
    assert permanent(np.zeros((0, 0))) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_permanent_matches_permutation_sum(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert permanent(a) == pytest.approx(permanent_bruteforce(a), rel=1e-12)


def test_permanent_rejects_non_square():
    with pytest.raises(ValueError):
        permanent(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# elementary unitaries
# ---------------------------------------------------------------------------


def test_beam_splitter_full_transmission():
    u = beam_splitter_unitary(1.0).matrix
    assert abs(u[0, 0]) ** 2 == pytest.approx(1.0)
    assert np.allclose(u, np.diag([1.0, -1.0]))


def test_beam_splitter_balanced_magnitudes():
    u = beam_splitter_unitary(0.5).matrix
    assert np.allclose(np.abs(u), 1 / np.sqrt(2))


def test_beam_splitter_unitarity_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        eta = rng.uniform(0.0, 1.0)
        u = beam_splitter_unitary(eta).matrix
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12


def test_beam_splitter_range_check():
    with pytest.raises(ValueError):
        beam_splitter_unitary(1.2)
    with pytest.raises(ValueError):
        beam_splitter_unitary(-0.1)


def test_qft_small():
    assert np.allclose(qft_unitary(1).matrix, [[1.0]])
    assert np.allclose(qft_unitary(2).matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_qft_three_mode_entries():
    u = qft_unitary(3).matrix
    assert np.allclose(u[0, :], 1 / np.sqrt(3))
    assert np.allclose(u[:, 0], 1 / np.sqrt(3))
    assert u[1, 1] == pytest.approx(np.exp(2j * np.pi / 3) / np.sqrt(3))


def test_mode_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        ModeUnitary(np.array([[1.0, 0.0], [0.0, 2.0]]))


# ---------------------------------------------------------------------------
# compile_circuit
# ---------------------------------------------------------------------------


def test_compile_empty_is_identity():
    assert np.allclose(compile_circuit([], 3).matrix, np.eye(3))


def test_compile_embeds_single_splitter():
    u = compile_circuit([BeamSplitter(0, 1, 0.5)], 3).matrix
    expected = np.eye(3, dtype=complex)
    expected[:2, :2] = beam_splitter_unitary(0.5).matrix
    assert np.allclose(u, expected)


def test_compile_rejects_loss():
    with pytest.raises(TypeError, match="unknown circuit element"):
        compile_circuit([Loss(0, 0.5)], 2)


def test_compile_rejects_out_of_range_mode():
    with pytest.raises(ValueError):
        compile_circuit([BeamSplitter(0, 3, 0.5)], 3)
    with pytest.raises(ValueError):
        compile_circuit([PhaseShift(2, 1.0)], 2)
    # numpy indexing would wrap a negative mode around to the last modes
    for element in (BeamSplitter(-1, 0, 0.25), PhaseShift(-1, 1.0)):
        with pytest.raises(ValueError, match="out of range"):
            compile_circuit([element], 3)


def test_compile_tritter_equals_hand_embedded_product():
    def splitter(a, b, transmittance):
        step = np.eye(3, dtype=complex)
        step[np.ix_([a, b], [a, b])] = beam_splitter_unitary(transmittance).matrix
        return step

    shift = np.eye(3, dtype=complex)
    shift[0, 0] = np.exp(1j * (3.0 * math.pi / 2.0))
    steps = [splitter(0, 1, 0.5), splitter(1, 2, 1.0 / 3.0), shift, splitter(0, 1, 0.5)]
    expected = np.eye(3, dtype=complex)
    for step in steps:
        expected = step @ expected
    compiled = compile_circuit(tritter_elements(), 3).matrix
    assert compiled.ravel().tolist() == pytest.approx(
        expected.ravel().tolist(), rel=0, abs=0
    )


def test_phase_angles_reduced_mod_two_pi():
    assert PhaseShift(0, 5 * np.pi).angle == pytest.approx(np.pi)


def test_tritter_equals_qft_up_to_diagonal_phases():
    # Solve d1_j * B_jk * d2_k = F_jk for diagonal phase vectors d1, d2 and
    # check the residual; this is the diagonal-equivalence invariant.
    b = compile_circuit(tritter_elements(), 3).matrix
    f = qft_unitary(3).matrix
    assert np.allclose(np.abs(b), np.abs(f), atol=1e-12)
    d1 = f[:, 0] / b[:, 0]
    d2 = f[0, :] / (d1[0] * b[0, :])
    resid = np.max(np.abs(np.diag(d1) @ b @ np.diag(d2) - f))
    assert resid < 1e-10
    assert np.allclose(np.abs(d1), 1.0) and np.allclose(np.abs(d2), 1.0)


# ---------------------------------------------------------------------------
# Fock amplitudes
# ---------------------------------------------------------------------------


def test_fock_amplitude_photon_number_conservation():
    u = qft_unitary(2)
    assert fock_amplitude(u, (1, 0), (1, 1)) == 0.0


def test_hom_cancellation_and_bunching():
    u = beam_splitter_unitary(0.5)
    assert fock_amplitude(u, (1, 1), (1, 1)) == pytest.approx(0.0, abs=1e-15)
    assert fock_amplitude(u, (1, 1), (2, 0)) == pytest.approx(1 / np.sqrt(2))
    assert fock_amplitude(u, (1, 1), (0, 2)) == pytest.approx(-1 / np.sqrt(2))


def test_identity_fock_amplitudes():
    u = ModeUnitary(np.eye(3))
    assert fock_amplitude(u, (2, 1, 0), (2, 1, 0)) == pytest.approx(1.0)
    assert fock_amplitude(u, (2, 1, 0), (1, 2, 0)) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("modes,photons", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_fock_amplitude_matches_ladder_expansion(modes, photons):
    rng = np.random.default_rng(17 * modes + photons)
    u = haar_unitary(rng, modes)
    inputs = [occ for occ in basis_enumerate(modes, photons) if sum(occ) == photons]
    outputs = inputs
    for n_in in inputs:
        for n_out in outputs:
            assert fock_amplitude(u, n_in, n_out) == pytest.approx(
                ladder_amplitude(u, n_in, n_out), abs=1e-10
            )


def test_fock_amplitude_unitarity_rows():
    rng = np.random.default_rng(29)
    u = haar_unitary(rng, 3)
    for n_in in [(2, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0)]:
        total = sum(
            abs(fock_amplitude(u, n_in, n_out)) ** 2
            for n_out in basis_enumerate(3, sum(n_in))
            if sum(n_out) == sum(n_in)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_apply_identity_keeps_state():
    rng = np.random.default_rng(31)
    basis = basis_enumerate(2, 3)
    state = normalized(
        PureState(2, dict(zip(basis, rng.standard_normal(len(basis)))), cutoff=3)
    )
    out = apply_mode_unitary(state, ModeUnitary(np.eye(2)))
    for occ in basis:
        assert amplitude(out, occ) == pytest.approx(amplitude(state, occ), abs=1e-12)


def test_apply_balanced_splitter_hom():
    out = apply_mode_unitary(fock_state((1, 1), cutoff=2), beam_splitter_unitary(0.5))
    assert amplitude(out, (1, 1)) == pytest.approx(0.0, abs=1e-14)
    assert amplitude(out, (2, 0)) == pytest.approx(1 / np.sqrt(2))
    assert amplitude(out, (0, 2)) == pytest.approx(-1 / np.sqrt(2))


def test_apply_keeps_amplitudes_of_any_size():
    # only exact zeros are dropped: |2, 0> through the g = 1e-25 gain splitter
    # keeps its sqrt(2) g |1, 1> and g^2 |0, 2> terms
    g = 1e-25
    c, s = 1.0 / math.hypot(1.0, g), g / math.hypot(1.0, g)
    splitter = ModeUnitary([[c, s], [s, -c]])
    out = apply_mode_unitary(fock_state((2, 0), cutoff=2), splitter)
    assert amplitude(out, (2, 0)) == 1.0
    assert amplitude(out, (1, 1)) == pytest.approx(math.sqrt(2) * g, rel=1e-12, abs=0)
    assert amplitude(out, (0, 2)) == pytest.approx(g * g, rel=1e-12, abs=0)


def test_apply_preserves_norm_random():
    rng = np.random.default_rng(37)
    for _ in range(100):
        modes = int(rng.integers(2, 4))
        u = haar_unitary(rng, modes)
        basis = basis_enumerate(modes, 3)
        amps = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        state = normalized(PureState(modes, dict(zip(basis, amps)), cutoff=3))
        assert abs(norm(apply_mode_unitary(state, u)) - 1.0) < 1e-10


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_mode_unitary(vacuum(2), qft_unitary(3))


def test_transfer_matrix_is_block_unitary():
    rng = np.random.default_rng(41)
    u = haar_unitary(rng, 3)
    t = fock_transfer_matrix(u, 3)
    assert np.max(np.abs(t @ t.conj().T - np.eye(t.shape[0]))) < 1e-10


@pytest.mark.parametrize("modes", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("max_total", [0, 1, 2, 3, 4])
def test_transfer_matrix_matches_permanent_amplitudes(modes, max_total):
    rng = np.random.default_rng(1000 + 10 * modes + max_total)
    u = haar_unitary(rng, modes)
    t = fock_transfer_matrix(u, max_total)
    basis = basis_enumerate(modes, max_total)
    assert t.shape == (len(basis), len(basis))
    for col, n_in in enumerate(basis):
        for row, n_out in enumerate(basis):
            if sum(n_in) == sum(n_out):
                assert abs(t[row, col] - fock_amplitude(u, n_in, n_out)) <= 1e-12
            else:
                assert t[row, col] == 0.0


def test_transfer_matrix_evaluates_no_permanent(monkeypatch):
    import qscissor.circuit as circuit

    def forbidden(*args, **kwargs):
        raise AssertionError("transfer matrix evaluated a permanent")

    monkeypatch.setattr(circuit, "permanent", forbidden)
    monkeypatch.setattr(circuit, "fock_amplitude", forbidden)
    u = haar_unitary(np.random.default_rng(2024), 4)
    t = fock_transfer_matrix(u, 4)
    assert np.max(np.abs(t @ t.conj().T - np.eye(t.shape[0]))) < 1e-10


@pytest.mark.parametrize("modes", range(1, 9))
def test_layout_is_the_reference_enumeration(modes):
    max_total = 4
    basis = basis_enumerate(modes, max_total)
    sectors = fock_sectors(modes, max_total)
    assert len(sectors) == max_total + 1
    for total, sector in enumerate(sectors):
        assert not sector.flags.writeable
        assert sector.tolist() == [list(occ) for occ in basis if sum(occ) == total]
        assert np.array_equal(sector_rank(sector), np.arange(len(sector)))
    # padded with the photons left over, a row ranks at its basis position
    occupations = np.array(basis)
    padded = np.column_stack([occupations, max_total - occupations.sum(axis=1)])
    assert np.array_equal(sector_rank(padded), np.arange(len(basis)))
    # a batch of mixed totals ranks each occupation in its own sector
    seen = [0] * (max_total + 1)
    local = []
    for occ in basis:
        local.append(seen[sum(occ)])
        seen[sum(occ)] += 1
    batch = np.stack([occupations, occupations[::-1]])
    assert np.array_equal(sector_rank(batch), [local, local[::-1]])


@pytest.mark.parametrize("modes,max_total", [(0, 3), (-1, 0), (2, -1)])
def test_fock_sectors_keeps_the_enumeration_checks(modes, max_total):
    with pytest.raises(ValueError) as expected:
        basis_enumerate(modes, max_total)
    with pytest.raises(ValueError) as raised:
        fock_sectors(modes, max_total)
    assert str(raised.value) == str(expected.value)


def test_transfer_matrix_is_fresh_with_read_only_blocks_in_place():
    u = haar_unitary(np.random.default_rng(77), 3)
    t = fock_transfer_matrix(u, 3)
    # the dense matrix is a fresh array: writing to it changes no later build
    expected = t.copy()
    t[:] = 0.0
    t = fock_transfer_matrix(u, 3)
    assert np.array_equal(t, expected)
    blocks = sector_transfer_blocks(u, 3)
    basis = basis_enumerate(3, 3)
    for sector, block in zip(fock_sectors(3, 3), blocks, strict=True):
        assert not block.flags.writeable
        positions = [basis.index(occ) for occ in map(tuple, sector.tolist())]
        assert np.array_equal(block, t[np.ix_(positions, positions)])


# ---------------------------------------------------------------------------
# loss channel
# ---------------------------------------------------------------------------


def test_loss_full_transmission_is_identity():
    state = from_pure(fock_state((2,), cutoff=2))
    out = apply_loss(state, 0, 1.0)
    assert len(out.components) == 1
    assert out.components[0][1].amplitudes == {(2,): 1.0}


def test_loss_single_photon_coin_flip():
    out = apply_loss(fock_state((1,), cutoff=1), 0, 0.5)
    weights = photon_number_weights(out, 0)
    assert weights[0] == pytest.approx(0.5)
    assert weights[1] == pytest.approx(0.5)


def test_loss_two_photon_binomial_weights():
    tau = 0.3
    out = apply_loss(fock_state((2,), cutoff=2), 0, tau)
    weights = photon_number_weights(out, 0)
    assert weights[0] == pytest.approx((1 - tau) ** 2)
    assert weights[1] == pytest.approx(2 * tau * (1 - tau))
    assert weights[2] == pytest.approx(tau**2)


def test_loss_preserves_trace_and_composes():
    rng = np.random.default_rng(43)
    basis = basis_enumerate(2, 3)
    amps = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    state = normalized(PureState(2, dict(zip(basis, amps)), cutoff=3))
    once = apply_loss(apply_loss(state, 0, 0.7), 0, 0.6)
    direct = apply_loss(state, 0, 0.42)
    assert mixture_trace(once) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(density_matrix(once) - density_matrix(direct))) < 1e-12


def test_loss_on_one_mode_leaves_other_marginal():
    state = fock_state((1, 2), cutoff=3)
    out = apply_loss(state, 1, 0.5)
    weights = photon_number_weights(out, 0)
    assert weights[1] == pytest.approx(1.0)


def test_loss_range_check():
    with pytest.raises(ValueError):
        apply_loss(vacuum(1), 0, 1.5)
