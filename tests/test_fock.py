import math

import numpy as np
import pytest

from oracles import (
    amplitude,
    basis_dimension,
    basis_enumerate,
    density_matrix,
    fock_state,
    from_pure,
    inner_product,
    norm,
    normalized,
    photon_number_weights,
    vacuum,
)
from qscissor.circuit import beam_splitter_unitary, fock_amplitude
from qscissor.fock import (
    MixedState,
    PureState,
    project_pattern,
    tensor,
)


def random_pure_state(rng, modes, cutoff):
    basis = basis_enumerate(modes, cutoff)
    amps = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    state = PureState(modes, dict(zip(basis, amps)), cutoff=cutoff)
    return normalized(state)


def test_basis_enumerate_single_mode():
    assert basis_enumerate(1, 2) == [(0,), (1,), (2,)]


def test_basis_enumerate_two_modes_lexicographic():
    assert basis_enumerate(2, 1) == [(0, 0), (0, 1), (1, 0)]


def test_basis_enumerate_count_three_modes():
    # stars and bars: sum_t C(t+2, 2) for t = 0..4 = 1+3+6+10+15
    basis = basis_enumerate(3, 4)
    assert len(basis) == 35
    assert len(basis) == basis_dimension(3, 4)


@pytest.mark.parametrize("modes,max_total", [(1, 6), (2, 4), (4, 3), (5, 4)])
def test_basis_enumerate_total_and_duplicate_free(modes, max_total):
    basis = basis_enumerate(modes, max_total)
    assert len(set(basis)) == len(basis)
    assert all(sum(occ) <= max_total for occ in basis)
    assert len(basis) == math.comb(max_total + modes, modes)
    assert basis == sorted(basis)  # canonical lexicographic order


def test_basis_enumerate_rejects_bad_args():
    with pytest.raises(ValueError):
        basis_enumerate(0, 3)
    with pytest.raises(ValueError):
        basis_enumerate(2, -1)


def test_pure_state_rejects_cutoff_overflow():
    with pytest.raises(ValueError, match="cutoff"):
        PureState(1, {(5,): 1.0}, cutoff=4)


def test_pure_state_rejects_wrong_mode_count():
    with pytest.raises(ValueError):
        PureState(2, {(1,): 1.0}, cutoff=1)


@pytest.mark.parametrize("occ,length", [((1,), 1), ((1, 0, 0), 3)])
def test_amplitude_rejects_wrong_mode_count(occ, length):
    with pytest.raises(ValueError, match=f"has {length} modes, expected 2"):
        amplitude(fock_state((1, 0)), occ)


@pytest.mark.parametrize(
    "occ",
    [(1.5, 0.7), (1, 0.5), (1, float("nan")), (1, float("inf")), (-float("inf"), 1),
     (np.float64(0.5), 1), (-1, 1)],
)
def test_pure_state_rejects_non_integral_occupations(occ):
    with pytest.raises(ValueError, match="must contain non-negative integers"):
        PureState(2, {occ: 1.0}, cutoff=2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: fock_state((1.5,)),
        lambda: amplitude(fock_state((1,)), (1.5,)),
        lambda: fock_amplitude(beam_splitter_unitary(0.5), (1.5, 0), (1, 0)),
    ],
    ids=["fock_state", "amplitude", "fock_amplitude"],
)
def test_occupation_arguments_reject_non_integral_entries(call):
    # int() alone would truncate 1.5 to 1
    with pytest.raises(ValueError, match="must contain non-negative integers"):
        call()


@pytest.mark.parametrize(
    "occ", [(1, 0), (np.int64(1), np.int32(0)), (1.0, 0.0), (np.float64(1.0), -0.0)]
)
def test_pure_state_accepts_integral_occupations(occ):
    state = PureState(2, {occ: 1.0}, cutoff=1)
    assert list(state.amplitudes) == [(1, 0)]
    assert all(type(n) is int for n in next(iter(state.amplitudes)))


def test_tiny_amplitudes_are_kept_and_exact_zeros_dropped():
    state = PureState(1, {(0,): 1.0, (1,): 1e-300, (2,): 0.0}, cutoff=2)
    assert state.amplitudes == {(0,): 1.0, (1,): 1e-300}
    assert amplitude(normalized(state), (1,)) == 1e-300


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    # a NaN would fail the exact-zero test and be dropped as if it were zero
    with pytest.raises(ValueError, match=r"amplitude .* of \(0,\) is not finite"):
        PureState(1, {(0,): bad, (1,): 1.0}, cutoff=2)


def test_norm_of_amplitudes_whose_squares_underflow():
    state = PureState(1, {(0,): 1e-200, (1,): 1e-200}, cutoff=2)
    assert norm(state) == pytest.approx(math.sqrt(2) * 1e-200, rel=1e-15)
    unit = normalized(state)
    assert amplitude(unit, (0,)) == amplitude(unit, (1,)) == pytest.approx(2**-0.5)


def test_normalize_is_idempotent():
    rng = np.random.default_rng(7)
    state = random_pure_state(rng, 3, 3)
    again = normalized(state)
    assert abs(norm(state) - 1.0) < 1e-12
    for occ, amp in state.amplitudes.items():
        assert abs(again.amplitudes[occ] - amp) < 1e-14


def test_inner_product_norm_and_orthogonality():
    psi = normalized(fock_state((1, 0)))
    phi = fock_state((0, 1))
    assert inner_product(psi, psi) == pytest.approx(1.0)
    assert inner_product(psi, phi) == 0.0


def test_inner_product_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_pure_state(rng, 2, 3)
        b = random_pure_state(rng, 2, 3)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))


def test_inner_product_mode_mismatch():
    with pytest.raises(ValueError, match="mode mismatch"):
        inner_product(vacuum(1), vacuum(2))


def test_project_single_photon_trivial():
    residual, p = project_pattern(fock_state((1, 0)), [0], [1])
    assert p == pytest.approx(1.0)
    assert residual.amplitudes == {(0,): 1.0}


def test_project_symmetric_superposition():
    state = PureState(2, {(1, 0): 1 / np.sqrt(2), (0, 1): 1 / np.sqrt(2)}, cutoff=1)
    residual, p = project_pattern(state, [0], [1])
    assert p == pytest.approx(0.5)
    assert residual.amplitudes[(0,)] == pytest.approx(1 / np.sqrt(2))


def test_project_matches_bruteforce_sum():
    # projecting a random 3-mode state on the pattern (1, 1, *) must equal the
    # direct sum over matching basis amplitudes
    rng = np.random.default_rng(23)
    state = random_pure_state(rng, 3, 4)
    residual, p = project_pattern(state, (0, 1), (1, 1))
    expected = sum(
        abs(amp) ** 2
        for occ, amp in state.amplitudes.items()
        if occ[0] == 1 and occ[1] == 1
    )
    assert p == pytest.approx(expected, abs=1e-12)
    for occ, amp in residual.amplitudes.items():
        assert amp == state.amplitudes[(1, 1) + occ]


def test_projection_chaining_is_order_independent():
    rng = np.random.default_rng(5)
    state = random_pure_state(rng, 3, 3)
    r01, p01 = project_pattern(state, (0, 1), (1, 0))
    r10, p10 = project_pattern(state, (1, 0), (0, 1))
    assert p01 == pytest.approx(p10, abs=1e-14)
    assert set(r01.amplitudes) == set(r10.amplitudes)


def test_projection_completeness():
    rng = np.random.default_rng(13)
    state = random_pure_state(rng, 2, 4)
    total = sum(
        project_pattern(state, [0], [n])[1] for n in range(state.cutoff + 1)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_empty_projection_gives_zero_probability():
    residual, p = project_pattern(fock_state((1,)), [0], [0])
    assert p == 0.0
    assert residual.amplitudes == {}


@pytest.mark.parametrize(
    "modes,counts,message",
    [([0, 1], [1], "2 projection modes but 1 counts"), ([0], [1, 1], "1 projection"),
     ([2], [1], "mode 2 out of range"), ([-1], [1], "mode -1 out of range")],
)
def test_projection_rejects_mismatched_or_out_of_range_modes(modes, counts, message):
    state = PureState(2, {(1, 0): 0.6, (1, 1): 0.8}, cutoff=2)
    with pytest.raises(ValueError, match=message):
        project_pattern(state, modes, counts)


def test_tensor_product_amplitudes():
    a = PureState(1, {(0,): 0.6, (1,): 0.8}, cutoff=1)
    b = fock_state((2,))
    prod = tensor(a, b)
    assert prod.modes == 2
    assert amplitude(prod, (1, 2)) == pytest.approx(0.8)
    assert amplitude(prod, (0, 2)) == pytest.approx(0.6)


def test_mixed_state_rejects_mode_mismatch():
    with pytest.raises(ValueError):
        MixedState([(0.5, vacuum(1)), (0.5, vacuum(2))])


def test_density_matrix_of_pure_superposition():
    state = PureState(1, {(0,): 1 / np.sqrt(2), (1,): 1 / np.sqrt(2)}, cutoff=1)
    rho = density_matrix(from_pure(state))
    assert rho.shape == (2, 2)
    assert np.allclose(rho, 0.5 * np.ones((2, 2)))


def test_photon_number_weights():
    mix = MixedState(
        [(0.25, fock_state((0,), cutoff=2)), (0.75, fock_state((2,), cutoff=2))]
    )
    weights = photon_number_weights(mix, 0)
    assert weights[0] == pytest.approx(0.25)
    assert weights[2] == pytest.approx(0.75)


@pytest.mark.parametrize("mode", [-1, 1])
def test_photon_number_weights_rejects_out_of_range_mode(mode):
    mix = from_pure(fock_state((2,), cutoff=2))
    with pytest.raises(ValueError, match=f"mode {mode} out of range for a 1-mode"):
        photon_number_weights(mix, mode)
