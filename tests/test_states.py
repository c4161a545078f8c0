import numpy as np
import pytest

from eigenschaft.errors import DomainError, ShapeError
from eigenschaft.linalg import MAX_MAGNITUDE, max_abs
from eigenschaft.operators import H2Params, build_h2, hadamard
from eigenschaft.states import (
    DISPERSION_EPS,
    DensityMatrix,
    StateVector,
    classify,
    decompose_state,
    diagonal_truncate,
    outer_product,
    superpose,
)

from helpers import random_hermitian, random_state


def e(dim, k):
    return StateVector.basis_state(dim, k)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            StateVector(np.array([1.0, 1.0]))

    def test_normalized_constructor(self):
        s = StateVector.normalized([3.0, 4.0j])
        assert np.allclose(s.amplitudes, [0.6, 0.8j])

    def test_rejects_zero_vector(self):
        with pytest.raises(DomainError, match="^cannot normalize the zero vector$"):
            StateVector.normalized([0.0, 0.0])

    @pytest.mark.parametrize("values, want", [
        ([1e-13, 0.0], [1.0, 0.0]),
        ([1e-170, 1e-170], [2 ** -0.5, 2 ** -0.5]),
        ([5e-324, 0.0], [1.0, 0.0]),
        ([3e-300j, 4e-300], [0.6j, 0.8]),
        ([MAX_MAGNITUDE, 1j * MAX_MAGNITUDE], [2 ** -0.5, 2 ** -0.5 * 1j]),
    ])
    def test_normalizes_every_nonzero_scale(self, values, want):
        """Only the zero vector is refused: the vector is scaled by its
        largest modulus first, so its norm neither underflows nor is cut."""
        s = StateVector.normalized(values)
        assert max_abs(s.amplitudes - np.array(want)) <= 1e-15

    def test_rejects_matrix_input(self):
        with pytest.raises(ShapeError):
            StateVector(np.eye(2))

    def test_basis_index_out_of_range(self):
        with pytest.raises(ShapeError, match="^basis index 2 out of range for dim 2$"):
            StateVector.basis_state(2, 2)

    @pytest.mark.parametrize("dim, index, message", [
        (2, 1.5, "basis index must be an integer, got 1.5"),
        (2, "1", "basis index must be an integer, got '1'"),
        (2, None, "basis index must be an integer, got None"),
        (2.0, 1, "dim must be an integer, got 2.0"),
    ])
    def test_basis_state_needs_integers(self, dim, index, message):
        with pytest.raises(DomainError) as exc:
            StateVector.basis_state(dim, index)
        assert str(exc.value) == message

    def test_basis_state_takes_numpy_integers(self):
        s = StateVector.basis_state(np.int64(3), np.uint8(2))
        assert np.array_equal(s.amplitudes, [0.0, 0.0, 1.0])

    def test_amplitudes_read_only(self):
        s = e(2, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 5.0


class TestSuperpose:
    def test_passthrough(self):
        out = superpose(1.0, e(2, 0), 0.0, e(2, 1))
        assert np.array_equal(out.amplitudes, e(2, 0).amplitudes)

    def test_equal_weights(self):
        out = superpose(1 / np.sqrt(2), e(2, 0), 1 / np.sqrt(2), e(2, 1))
        assert np.allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_cancellation_raises(self):
        with pytest.raises(DomainError):
            superpose(1.0, e(2, 0), -1.0, e(2, 0))

    def test_small_coefficients_are_not_a_cancellation(self):
        """The cancellation cut is relative to ``|c1| + |c2|``, so tiny
        coefficients that cancel nothing still give a state."""
        out = superpose(1e-13, e(2, 0), 1e-13, e(2, 1))
        assert max_abs(out.amplitudes - np.array([1.0, 1.0]) / np.sqrt(2)) <= 1e-15

    def test_exact_cancellation_raises_at_any_scale(self):
        for c in (1.0, 1e-13, 1e90):
            with pytest.raises(DomainError, match="the components cancel"):
                superpose(c, e(2, 0), -c, e(2, 0))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            superpose(1.0, e(2, 0), 1.0, e(3, 0))

    def test_renormalizes(self):
        out = superpose(2.0, e(2, 0), 2.0j, e(2, 1))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0)


class TestDecomposeState:
    def test_eigenvector_case(self):
        d = decompose_state(np.diag([1.0, -1.0]), e(2, 0))
        assert d.mean == pytest.approx(1.0)
        assert d.dispersion == 0.0
        assert d.residual_state is None

    def test_hadamard_on_basis_state(self):
        d = decompose_state(hadamard().matrix, e(2, 0))
        assert d.mean == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert d.dispersion == pytest.approx(0.5, abs=1e-15)
        assert max_abs(d.residual_state.amplitudes - e(2, 1).amplitudes) < 1e-12

    @pytest.mark.parametrize("dphi", [0.0, 0.3, np.pi / 2, -2.0])
    def test_mixing_angle_sets_mean_and_dispersion(self, dphi):
        op = build_h2(H2Params(gamma_angle=np.radians(60.0), delta_phi=dphi))
        d = decompose_state(op.matrix, e(2, 0))
        assert d.mean == pytest.approx(0.5, abs=1e-15)
        assert d.dispersion == pytest.approx(0.75, abs=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            decompose_state(np.array([[0.0, 1.0], [0.0, 0.0]]), e(2, 0))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            decompose_state(np.eye(3), e(2, 0))

    def test_reconstruction_and_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            a = random_hermitian(n, rng)
            psi = StateVector(random_state(n, rng))
            d = decompose_state(a, psi)
            # Independent dispersion oracle via direct matrix-vector products.
            apsi = a @ psi.amplitudes
            mean_oracle = np.vdot(psi.amplitudes, apsi).real
            second_oracle = np.vdot(psi.amplitudes, a @ apsi).real
            assert d.mean == pytest.approx(mean_oracle, abs=1e-10)
            assert d.dispersion >= -1e-12
            assert d.dispersion == pytest.approx(
                second_oracle - mean_oracle**2, abs=1e-10
            )
            assert d.residual_state is not None
            recon = d.mean * psi.amplitudes + np.sqrt(
                d.dispersion
            ) * d.residual_state.amplitudes
            assert np.linalg.norm(apsi - recon) <= 1e-9
            overlap = abs(np.vdot(psi.amplitudes, d.residual_state.amplitudes))
            assert overlap <= 1e-10

    def test_dispersion_zero_iff_eigenvector(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            a = random_hermitian(n, rng)
            w, v = np.linalg.eigh(a)
            eigvec = StateVector.normalized(v[:, 0])
            assert decompose_state(a, eigvec).dispersion <= 1e-12
            if abs(w[0] - w[-1]) > 1e-6:
                mix = StateVector.normalized(v[:, 0] + v[:, -1])
                assert decompose_state(a, mix).dispersion > 1e-12

    @pytest.mark.parametrize("scale", [1.0, 100.0, 1e6, 1e50, 1e99, MAX_MAGNITUDE])
    def test_eigenvector_at_every_scale(self, scale):
        """Every unit phase is an eigenvector of ``[[scale]]``: dispersion
        at or below the cut and no residual state, up to the magnitude
        bound."""
        a = np.array([[scale]])
        cut = DISPERSION_EPS * max(1.0, scale * scale)
        for phase in np.random.default_rng(20).uniform(-np.pi, np.pi, 300):
            d = decompose_state(a, StateVector(np.array([np.exp(1j * phase)])))
            assert d.mean == pytest.approx(scale, rel=1e-14)
            assert 0.0 <= d.dispersion <= cut
            assert d.residual_state is None

    def test_dispersion_matches_second_moment_formula(self):
        """Away from eigenvectors the remainder's squared length is the
        second moment minus the squared mean, to relative 1e-12."""
        rng = np.random.default_rng(21)
        for n in range(2, 65):
            a = random_hermitian(n, rng)
            psi = random_state(n, rng)
            image = a @ psi
            mean = np.vdot(psi, image).real
            second_moment = np.vdot(image, image).real
            d = decompose_state(a, StateVector(psi))
            assert d.dispersion == pytest.approx(second_moment - mean**2, rel=1e-12)


class TestOuterProduct:
    def test_basis_state_gives_projector(self):
        rho = outer_product(e(2, 0))
        assert np.array_equal(rho.matrix, np.diag([1.0 + 0j, 0.0]))

    def test_equal_superposition(self):
        rho = outer_product(StateVector(np.array([1.0, 1.0]) / np.sqrt(2)))
        assert max_abs(rho.matrix - 0.5) < 1e-15

    def test_three_component_trace_and_purity(self):
        rng = np.random.default_rng(13)
        psi = StateVector(random_state(3, rng))
        rho = outer_product(psi)
        assert np.trace(rho.matrix).real == pytest.approx(1.0)
        assert max_abs(rho.matrix @ rho.matrix - rho.matrix) <= 1e-10


class TestDiagonalTruncate:
    def test_equal_superposition(self):
        rho = outer_product(StateVector(np.array([1.0, 1.0]) / np.sqrt(2)))
        trunc = diagonal_truncate(rho)
        assert max_abs(trunc.matrix - np.diag([0.5, 0.5])) < 1e-15

    def test_already_diagonal_unchanged(self):
        rho = outer_product(e(2, 0))
        assert np.array_equal(diagonal_truncate(rho).matrix, rho.matrix)

    def test_populations_on_diagonal(self):
        rng = np.random.default_rng(14)
        amp = random_state(3, rng)
        trunc = diagonal_truncate(outer_product(StateVector(amp)))
        assert np.allclose(np.diag(trunc.matrix), np.abs(amp) ** 2)

    def test_idempotent(self):
        rng = np.random.default_rng(15)
        rho = outer_product(StateVector(random_state(4, rng)))
        once = diagonal_truncate(rho)
        twice = diagonal_truncate(once)
        assert np.array_equal(once.matrix, twice.matrix)


class TestClassify:
    def test_pure_state(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            c = classify(outer_product(StateVector(random_state(n, rng))))
            assert c.kind == "pure"
            assert c.purity == pytest.approx(1.0, abs=1e-10)
            assert abs(c.rho_dispersion) <= 1e-10

    def test_maximally_mixed_pair(self):
        c = classify(DensityMatrix(np.diag([0.5, 0.5])))
        assert c.kind == "mixture"
        assert c.purity == pytest.approx(0.5)
        assert c.rho_dispersion == pytest.approx(-0.5)

    def test_two_component_dispersion_closed_form(self):
        amp = np.array([1.0, 1.0]) / np.sqrt(2)
        c = classify(diagonal_truncate(outer_product(StateVector(amp))))
        pa, pb = np.abs(amp) ** 2
        assert c.rho_dispersion == pytest.approx(-2 * pa * pb, abs=5e-16)
        assert c.rho_dispersion == pytest.approx(-0.5, abs=1e-15)

    def test_truncation_dispersion_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            amp = random_state(n, rng)
            c = classify(diagonal_truncate(outer_product(StateVector(amp))))
            p = np.abs(amp) ** 2
            expected = -2.0 * sum(
                p[i] * p[j] for i in range(n) for j in range(i + 1, n)
            )
            assert c.rho_dispersion == pytest.approx(expected, abs=1e-10)
            assert c.rho_dispersion < 0.0

    def test_rejects_invalid_density_matrix(self):
        with pytest.raises(DomainError):
            classify(np.diag([0.7, 0.7]))  # trace 1.4
        with pytest.raises(DomainError):
            classify(np.array([[1.2, 0.0], [0.0, -0.2]]))  # not PSD


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_accepts_tiny_negative_eigenvalue(self):
        m = np.diag([1.0 + 5e-11, -5e-11])
        DensityMatrix(m)  # within the PSD floor

    def test_matrix_read_only(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestNearFloatLimit:
    """Entries above ``MAX_MAGNITUDE``, up to the float limit, are refused
    at the door, with a message that names the caller's argument and no
    numpy warning (warnings are errors under this suite's settings)."""

    HUGE = 1e308
    BOUND = "must be finite and at most 1e\\+100 in magnitude"

    def test_state_norm(self):
        with pytest.raises(DomainError, match="amplitudes " + self.BOUND):
            StateVector(np.array([self.HUGE, self.HUGE]))

    def test_normalized(self):
        with pytest.raises(DomainError, match="amplitudes " + self.BOUND):
            StateVector.normalized([self.HUGE, self.HUGE])

    def test_superpose(self):
        with pytest.raises(DomainError, match="coefficients " + self.BOUND):
            superpose(self.HUGE, e(2, 0), self.HUGE, e(2, 0))

    def test_density_trace(self):
        with pytest.raises(DomainError, match="matrix entries " + self.BOUND):
            DensityMatrix(np.diag([self.HUGE, self.HUGE]))

    def test_decompose(self):
        m = np.array([[0.5, self.HUGE], [self.HUGE, 0.5]])
        with pytest.raises(DomainError, match="matrix entries " + self.BOUND):
            decompose_state(m, e(2, 0))
