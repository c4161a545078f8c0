import re
import subprocess
import sys

import numpy as np
import pytest

from eigenschaft import linalg, operators, serialize
from eigenschaft.dynamics import TwoLevelSystem, beat_trace
from eigenschaft.errors import ConstructionError, DomainError, ShapeError
from eigenschaft.linalg import (
    MAX_DIM,
    TOL_HERM,
    TOL_INV,
    TOL_ORTHO,
    as_square,
    hermitian_eig,
    hermiticity_residual,
    involution_residual,
    max_abs,
)
from eigenschaft.operators import (
    EXPRESSIBLE_TOL,
    DiagSpec,
    EigenschaftOp,
    H2Params,
    ProjectorSet,
    algebra_table,
    build_from_diag,
    build_h2,
    build_kron_family,
    complement_family,
    from_projector_flip,
    h2_elements,
    hadamard,
    to_projectors,
    validate,
    wrap_phase,
)

from helpers import (
    haar_unitary,
    random_hermitian,
    random_involution,
    random_signs,
    sylvester_hadamard,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def pairwise_verdict(projectors):
    """Reference for ``ProjectorSet`` validation: every member, then every
    pair ``(i, j)`` multiplied out in row-major order, then completeness.
    Returns the message of the first failing gate, or None."""
    mats = [as_square(p) for p in projectors]
    n = mats[0].shape[0]
    for i, p in enumerate(mats):
        if hermiticity_residual(p) > TOL_HERM:
            return f"projector {i} is not Hermitian"
        if max_abs(p @ p - p) > TOL_INV:
            return f"projector {i} is not idempotent"
        if abs(complex(np.trace(p)) - 1.0) > 1e-8:
            return f"projector {i} is not rank one"
    for i in range(n):
        for j in range(i + 1, n):
            if max_abs(mats[i] @ mats[j]) > TOL_INV:
                return f"projectors {i} and {j} are not orthogonal"
    if max_abs(sum(mats) - np.eye(n)) > TOL_INV:
        return "projectors do not resolve the identity"
    return None


def pairwise_table(family):
    """Reference for ``algebra_table``: one ``lstsq`` per product over the
    stacked real and imaginary parts, and each commutator from a second
    product.  Returns ``(products, commutators)`` keyed as the table is,
    with ``(coefficients, residual, expressible)`` per product."""
    dim = family[0].dim
    basis = [np.eye(dim, dtype=complex)] + [op.matrix for op in family]
    design = np.column_stack(
        [np.concatenate([b.ravel().real, b.ravel().imag]) for b in basis]
    )
    products, commutators = {}, {}
    for i, hi in enumerate(family):
        for j, hj in enumerate(family):
            prod = hi.matrix @ hj.matrix
            target = np.concatenate([prod.ravel().real, prod.ravel().imag])
            coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
            recon = sum(c * b for c, b in zip(coeffs, basis))
            residual = max_abs(prod - recon)
            products[(i, j)] = (coeffs, residual, residual <= EXPRESSIBLE_TOL)
            if i < j:
                commutators[(i, j)] = max_abs(prod - hj.matrix @ hi.matrix)
    return products, commutators


def library_verdict(projectors):
    try:
        ProjectorSet(tuple(projectors))
    except DomainError as exc:
        return str(exc)
    return None


def door_message(m):
    """The message with which ``EigenschaftOp(m)`` refuses ``m``, after
    checking that ``EigenschaftOp.from_matrix(m)`` refuses it with the
    same one."""
    with pytest.raises(DomainError) as plain:
        EigenschaftOp(m)
    with pytest.raises(DomainError) as named:
        EigenschaftOp.from_matrix(m)
    assert str(plain.value) == str(named.value)
    return str(plain.value)


def frame_projectors(frame):
    return [np.outer(frame[:, k], frame[:, k].conj()) for k in range(frame.shape[1])]


def frame_of(projectors):
    """Unit vectors read off rank-1 projectors: the largest-diagonal column
    of each, scaled to unit length, as the columns of a matrix."""
    cols = []
    for p in projectors:
        j = int(np.argmax(np.real(np.diag(p))))
        cols.append(p[:, j] / np.sqrt(p[j, j].real))
    return np.column_stack(cols)


class TestEigenschaftOp:
    def test_from_matrix_infers_spectral_data(self):
        op = EigenschaftOp.from_matrix(np.diag([1.0, -1.0, 1.0]))
        assert op.trace_class == 1
        assert op.multiplicities == (2, 1)
        assert op.dim == 3

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError, match="Hermitian"):
            EigenschaftOp.from_matrix(np.array([[1.0, 1.0], [0.0, -1.0]]))

    def test_rejects_non_involution(self):
        with pytest.raises(DomainError, match="involution"):
            EigenschaftOp.from_matrix(np.diag([1.0, 0.5]))

    def test_near_involution_is_refused(self):
        """The constructor refuses a residual of 2e-7, as ``from_matrix``
        does."""
        near = np.diag([1.0 + 1e-7, -1.0 - 1e-7])
        assert door_message(near) == (
            "not an involution: residual 2.000e-07 exceeds 1e-10"
        )

    def test_one_tolerance_gates_both_residuals(self):
        skew = np.array([[1.0, 1e-7], [0.0, -1.0]])
        with pytest.raises(DomainError) as exc:
            EigenschaftOp.from_matrix(skew)
        assert str(exc.value) == "not Hermitian: residual 1.000e-07 exceeds 1e-10"
        with pytest.raises(DomainError) as exc:
            EigenschaftOp.from_matrix(np.diag([1.0, -1.0 - 1e-9]))
        assert str(exc.value) == "not an involution: residual 2.000e-09 exceeds 1e-10"

    def test_overflowing_trace_is_refused(self):
        """Entries whose trace would overflow are refused by their
        magnitude; at the bound the involution residual is finite and
        refused."""
        assert door_message(np.diag([1e308, 1e308])) == (
            "matrix entries must be finite and at most 1e+100 in magnitude"
        )
        assert door_message(np.diag([1e100, 1e100])) == (
            "not an involution: residual 1.000e+200 exceeds 1e-10"
        )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_constructor_derives_spectral_data(self, n):
        rng = np.random.default_rng(100 + n)
        for tc in range(-n, n + 1, 2):
            m = random_involution(n, rng, trace_class=tc)
            direct = EigenschaftOp(m)
            gated = EigenschaftOp.from_matrix(m)
            assert direct.trace_class == gated.trace_class == tc
            n_plus = (n + tc) // 2
            assert direct.multiplicities == gated.multiplicities == (n_plus, n - n_plus)

    @pytest.mark.parametrize("diag, distance, message", [
        ([1.0, -1.0 + 1e-6], "1.000e-06 away from the nearest admissible trace class 0",
         "not an involution: residual 2.000e-06 exceeds 1e-10"),
        ([1.0, 0.5], "5.000e-01 away from the nearest admissible trace class 2",
         "not an involution: residual 7.500e-01 exceeds 1e-10"),
        ([1.0, 1.0, 1.0 + 1e-7], "1.000e-07 away from the nearest admissible trace class 3",
         "not an involution: residual 2.000e-07 exceeds 1e-10"),
        ([1.0, -1.0 + 1e-6j], "1.000e-06 away from the nearest admissible trace class 0",
         "not Hermitian: residual 2.000e-06 exceeds 1e-10"),
    ])
    def test_constructor_refuses_non_integral_trace(self, diag, distance, message):
        """A diagonal off its trace class is off a Hermitian involution by
        as much, so the residual gates refuse it before the trace gate;
        ``validate`` still reports the distance."""
        m = np.diag(diag)
        report = validate(m)
        assert (f"{report.trace_class_distance:.3e} away from the nearest "
                f"admissible trace class {report.trace_class}") == distance
        assert door_message(m) == message

    def test_trace_gate_stays_behind_the_residual_gates(self):
        """``S/8 + 3.92e-10 I``, with ``S`` the 64 x 64 Sylvester-Hadamard
        matrix, passes the Hermiticity gate and the involution gate
        (residual 9.8e-11) and is refused by the trace gate: its trace is
        ``64 * 3.92e-10`` off trace class 0, where the residual gates allow
        up to ``n^(3/2) TOL_INV / 2`` = 2.56e-8."""
        m = sylvester_hadamard(MAX_DIM) / 8.0 + 3.92e-10 * np.eye(MAX_DIM)
        assert hermiticity_residual(m) == 0.0
        assert 9.7e-11 < involution_residual(m) <= TOL_INV
        assert re.fullmatch(
            r"trace \(2\.5087\d*e-08\+0j\) is 2\.509e-08 away from the "
            r"nearest admissible trace class 0", door_message(m))

    @pytest.mark.parametrize("kind", ["involution", "neither", "uniform-256",
                                      "fourier-512"])
    def test_refused_past_max_dim_before_any_residual(self, monkeypatch, kind):
        """Past ``MAX_DIM`` rows the constructor refuses with ``ShapeError``
        naming the dimension and the cap, without computing a residual:
        an n = 65 involution, an n = 65 matrix neither Hermitian nor an
        involution, and the admitted near-involutions that reached the
        trace gate (``I + 1.2e-8 x x^T``, ``x`` uniform, n = 256) and
        ``to_projectors``' former eigenvalue refusal (``I + 1.1e-8 (x x^dag
        - y y^dag)`` on two Fourier columns, n = 512)."""
        if kind == "involution":
            m = np.diag([1.0, -1.0] * 32 + [1.0])
        elif kind == "neither":
            m = np.arange(65.0 * 65.0).reshape(65, 65)
        elif kind == "uniform-256":
            m = np.eye(256) + 1.2e-8 / 256
        else:
            n = 512
            x, y = (np.exp(2j * np.pi * k * np.arange(n) / n) / np.sqrt(n)
                    for k in (1, 2))
            m = np.eye(n) + 1.1e-8 * (np.outer(x, x.conj()) - np.outer(y, y.conj()))

        def no_residual(*args):
            raise AssertionError("a residual was computed")
        for name in ("check_hermitian", "hermiticity_kernel", "involution_kernel"):
            monkeypatch.setattr(operators, name, no_residual)
            monkeypatch.setattr(linalg, name, no_residual)
        with pytest.raises(ShapeError) as exc:
            EigenschaftOp(m)
        assert str(exc.value) == f"dimension {len(m)} exceeds MAX_DIM = 64"

    def test_matrix_read_only(self):
        op = hadamard()
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 9.0


class TestBuildH2:
    def test_symmetric_splitter(self):
        op = build_h2(H2Params(gamma_angle=np.radians(45.0), delta_phi=0.0))
        assert max_abs(op.matrix - HADAMARD) < 1e-15
        assert op.trace_class == 0

    def test_zero_angle_gives_projector_difference(self):
        op = build_h2(H2Params(gamma_angle=0.0, delta_phi=0.0))
        assert np.array_equal(op.matrix, np.diag([1.0 + 0j, -1.0]))

    def test_quarter_phase_quadrature(self):
        op = build_h2(H2Params(gamma_angle=np.radians(90.0), delta_phi=np.pi / 2))
        expected = np.array([[0.0, 1j], [-1j, 0.0]])
        assert max_abs(op.matrix - expected) < 1e-15

    def test_structure_identities_over_grid(self):
        for gamma in np.linspace(-np.pi, np.pi, 17):
            for dphi in np.linspace(-np.pi, np.pi, 9):
                op = build_h2(H2Params(gamma_angle=gamma, delta_phi=dphi))
                el = h2_elements(op)
                assert el.alpha**2 + el.beta**2 == pytest.approx(1.0, abs=1e-15)
                assert abs(np.trace(op.matrix)) <= 1e-15
                assert involution_residual(op.matrix) <= 1e-15


class TestHadamard:
    #: Counts every ``EigenschaftOp.from_matrix`` call after the import.
    FIRST_CALL = """
import eigenschaft.operators as operators

real = operators.EigenschaftOp.from_matrix.__func__
calls = []

def counted(cls, m):
    calls.append(1)
    return real(cls, m)

operators.EigenschaftOp.from_matrix = classmethod(counted)
ops = [operators.hadamard() for _ in range(3)]
assert all(op is ops[0] for op in ops), "hadamard() returned a new operator"
assert not ops[0].matrix.flags.writeable, "the matrix is writeable"
print(len(calls))
"""

    def test_built_when_the_module_loads(self):
        """A first call in a fresh interpreter builds and gates nothing, so a
        traced request counts the same work whichever request comes first;
        every call returns the one read-only operator."""
        proc = subprocess.run([sys.executable, "-c", self.FIRST_CALL],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"


class TestH2Elements:
    def test_symmetric_splitter(self):
        el = h2_elements(hadamard())
        assert el.alpha == pytest.approx(1 / np.sqrt(2))
        assert el.beta == pytest.approx(1 / np.sqrt(2))
        assert el.delta_phi == 0.0

    def test_diagonal_branch_reports_zero_phase(self):
        el = h2_elements(build_h2(H2Params(gamma_angle=0.0, delta_phi=1.23)))
        assert el.alpha == pytest.approx(1.0)
        assert el.beta == 0.0
        assert el.delta_phi == 0.0

    def test_inverts_build_h2(self):
        el = h2_elements(
            build_h2(H2Params(gamma_angle=np.radians(60.0), delta_phi=np.pi / 4))
        )
        assert el.alpha == pytest.approx(0.5, abs=1e-15)
        assert el.beta == pytest.approx(np.sqrt(3) / 2, abs=1e-15)
        assert el.delta_phi == pytest.approx(np.pi / 4)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ShapeError):
            h2_elements(EigenschaftOp.from_matrix(np.diag([1.0, -1.0, 1.0])))


class TestDiagSpec:
    def test_alpha_bound_named_in_error(self):
        with pytest.raises(ConstructionError, match=r"\|alpha_1\| <= 1"):
            DiagSpec(dim=3, alphas=(2.0, 0.0, -1.0), trace_sign=1, phases=(0.0, 0.0))

    def test_trace_sum_named_in_error(self):
        with pytest.raises(ConstructionError, match="sum"):
            DiagSpec(dim=3, alphas=(0.5, 0.5, 0.5), trace_sign=1, phases=(0.0, 0.0))

    def test_phase_count(self):
        with pytest.raises(ConstructionError, match="phases"):
            DiagSpec(dim=4, alphas=(0.5,) * 4, trace_sign=1, phases=(0.0, 0.0))

    def test_dim_guard(self):
        with pytest.raises(ConstructionError):
            DiagSpec(dim=5, alphas=(0.2,) * 5, trace_sign=1, phases=(0.0,) * 4)

    @pytest.mark.parametrize("change, message", [
        ({"trace_sign": 0}, "trace_sign must be +1 or -1"),
        ({"alphas": (0.5, 0.5)}, "need 3 diagonal entries, got 2"),
        ({"alphas": [[1 / 3, 1 / 3, 1 / 3]]}, "need 3 diagonal entries, got 1"),
        ({"alphas": 1 / 3}, "need 3 diagonal entries, got 1"),
        ({"phases": [[0.0, 0.0]]}, "dimension 3 takes 2 free phases, got 1"),
    ])
    def test_rejects_malformed_spec(self, change, message):
        spec = {"dim": 3, "alphas": (1 / 3,) * 3, "trace_sign": 1,
                "phases": (0.0, 0.0)}
        with pytest.raises(ConstructionError) as exc:
            DiagSpec(**{**spec, **change})
        assert str(exc.value) == message


class TestBuildFromDiag:
    def test_uniform_thirds(self):
        spec = DiagSpec(dim=3, alphas=(1 / 3,) * 3, trace_sign=1, phases=(0.0, 0.0))
        op = build_from_diag(spec)
        expected = np.eye(3) - 2.0 * np.full((3, 3), 1 / 3)
        assert max_abs(op.matrix - expected) < 1e-14
        offs = [op.matrix[i, j].real for i, j in [(0, 1), (0, 2), (1, 2)]]
        assert all(x == pytest.approx(-2 / 3) for x in offs)
        assert op.trace_class == 1

    def test_saturated_alphas_force_diagonal(self):
        spec = DiagSpec(dim=3, alphas=(1.0, 1.0, -1.0), trace_sign=1, phases=(0.7, 0.7))
        op = build_from_diag(spec)
        assert max_abs(op.matrix - np.diag([1.0, 1.0, -1.0])) < 1e-15

    def test_dim4_magnitudes_and_phase_closure(self):
        spec = DiagSpec(
            dim=4,
            alphas=(0.5,) * 4,
            trace_sign=1,
            phases=(0.0, np.pi / 2, np.pi),
        )
        m = build_from_diag(spec).matrix
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for i, j in pairs:
            assert abs(m[i, j]) == pytest.approx(0.5, abs=1e-14)
        # Dependent phases (signed-amplitude convention, sign -trace_sign).
        assert np.angle(-m[1, 2]) == pytest.approx(np.pi / 2)
        assert abs(wrap_phase(np.angle(-m[1, 3]) - np.pi)) < 1e-12
        assert np.angle(-m[2, 3]) == pytest.approx(np.pi / 2)
        assert involution_residual(m) <= 1e-13

    def test_negative_trace_branch(self):
        spec = DiagSpec(dim=3, alphas=(-1 / 3,) * 3, trace_sign=-1, phases=(0.4, 1.1))
        op = build_from_diag(spec)
        assert op.trace_class == -1
        # Lower-sign relations: |H_ij|^2 = (1 + a_i)(1 + a_j).
        predicted = (1 - 1 / 3) * (1 - 1 / 3)
        assert abs(op.matrix[0, 1]) ** 2 == pytest.approx(predicted, abs=1e-14)

    def test_free_phases_land_on_first_row(self):
        spec = DiagSpec(dim=3, alphas=(0.2, 0.3, 0.5), trace_sign=1, phases=(0.8, -0.9))
        m = build_from_diag(spec).matrix
        assert np.angle(-m[0, 1]) == pytest.approx(0.8)
        assert np.angle(-m[0, 2]) == pytest.approx(-0.9)

    def test_signed_amplitude_triple_product_sign_law(self):
        # For trace sign s the triple H12*H23*H31 is real with sign -s.
        rng = np.random.default_rng(21)
        for _ in range(100):
            s = int(rng.choice([1, -1]))
            # Feasible diagonal with sum s and |alpha| < 1 via a simplex point.
            raw = rng.uniform(0.05, 0.95, size=3)
            w = raw / raw.sum()
            alphas = tuple(s * (1.0 - 2.0 * w))
            phases = tuple(rng.uniform(-np.pi, np.pi, size=2))
            m = build_from_diag(
                DiagSpec(dim=3, alphas=alphas, trace_sign=s, phases=phases)
            ).matrix
            triple = m[0, 1] * m[1, 2] * m[2, 0]
            assert abs(triple.imag) <= 1e-12
            assert np.sign(triple.real) == -s


class TestProjectorSet:
    def test_standard_basis(self):
        ps = ProjectorSet.standard_basis(3)
        assert ps.dim == 3
        assert np.array_equal(ps.projectors[1], np.diag([0.0, 1.0 + 0j, 0.0]))

    def test_from_unitary_columns(self):
        u = haar_unitary(4, np.random.default_rng(22))
        ps = ProjectorSet.from_columns(u)
        total = sum(ps.projectors)
        assert max_abs(total - np.eye(4)) <= 1e-12

    def test_rejects_incomplete_family(self):
        p0 = np.diag([1.0, 0.0, 0.0])
        p1 = np.diag([0.0, 1.0, 0.0])
        with pytest.raises(DomainError):
            ProjectorSet((p0, p1, p1))  # duplicated, not orthogonal/complete

    def test_rejects_rank_two_member(self):
        with pytest.raises(DomainError, match="rank one"):
            ProjectorSet((np.diag([1.0, 1.0]), np.diag([0.0, 0.0])))

    def test_rejects_wrong_count(self):
        with pytest.raises(DomainError, match="exactly"):
            ProjectorSet((np.diag([1.0, 0.0]),))

    @pytest.mark.parametrize("projectors, message", [
        ((), "projector set must be non-empty"),
        ((np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 0.0])),
         "projectors must share one dimension"),
        (5, "projector set must be a sequence of matrices, got 5"),
        (None, "projector set must be a sequence of matrices, got None"),
    ])
    def test_rejects_malformed_family(self, projectors, message):
        with pytest.raises(ShapeError) as exc:
            ProjectorSet(projectors)
        assert str(exc.value) == message

    @pytest.mark.parametrize("dim", [2.5, 2.0, "2", None, True])
    def test_standard_basis_needs_an_integer_dim(self, dim):
        with pytest.raises(DomainError) as exc:
            ProjectorSet.standard_basis(dim)
        assert str(exc.value) == f"dim must be an integer, got {dim!r}"

    @pytest.mark.parametrize("dim", [-1, 0, 2**63, 2**70])
    def test_standard_basis_needs_a_dim_numpy_can_hold(self, dim):
        """-1 and 2**63 raised numpy's ``ValueError`` and 0 was refused as
        an empty matrix.  Only dims that numpy could never allocate are
        tried here."""
        with pytest.raises(DomainError) as exc:
            ProjectorSet.standard_basis(dim)
        assert str(exc.value) == (
            f"dim must be from 1 to {np.iinfo(np.intp).max}, got {dim}"
        )

    def test_standard_basis_takes_numpy_integers(self):
        assert ProjectorSet.standard_basis(np.int64(3)).dim == 3


class TestProjectorSetMatchesPairwise:
    """The frame screen gives the verdict and the first message of the
    pairwise reference on every input."""

    @staticmethod
    def check(projectors):
        want = pairwise_verdict(projectors)
        assert library_verdict(projectors) == want
        return want

    def test_duplicated_member(self):
        p0, p1 = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])
        assert self.check([p0, p1, p1]) == "projectors 1 and 2 are not orthogonal"
        # Pairs (0, 3) and (1, 2) both fail; row-major order names (0, 3).
        q0, q1 = np.diag([1.0, 0, 0, 0]), np.diag([0, 1.0, 0, 0])
        assert self.check([q0, q1, q1, q0]) == "projectors 0 and 3 are not orthogonal"

    def test_rank_two_member(self):
        assert self.check([np.diag([1.0, 1.0]), np.diag([0.0, 0.0])]) == (
            "projector 0 is not rank one")

    def test_non_hermitian_member(self):
        mats = frame_projectors(haar_unitary(4, np.random.default_rng(60)))
        mats[2] = mats[2].copy()
        mats[2][0, 1] += 1e-9
        assert self.check(mats) == "projector 2 is not Hermitian"

    def test_planted_idempotence_error(self):
        rng = np.random.default_rng(61)
        mats = frame_projectors(haar_unitary(5, rng))
        x = random_hermitian(5, rng)
        x -= np.trace(x) / 5 * np.eye(5)
        mats[3] = mats[3] + 1e-9 * x / max_abs(x)
        assert self.check(mats) == "projector 3 is not idempotent"

    def test_first_failing_member_is_named(self):
        """Member 1 (Hermitian with unit trace) is not idempotent and member
        2 is not Hermitian: the stacked gates name member 1, as the
        member-by-member loop does."""
        mats = frame_projectors(haar_unitary(4, np.random.default_rng(64)))
        mats[1] = 1.5 * mats[1] - np.eye(4) / 8
        mats[2] = mats[2].copy()
        mats[2][0, 1] += 1e-9
        assert self.check(mats) == "projector 1 is not idempotent"

    def test_hermiticity_is_checked_before_idempotency(self):
        mats = frame_projectors(haar_unitary(3, np.random.default_rng(65)))
        mats[0] = mats[0] + np.triu(np.full((3, 3), 1e-3), k=1)
        assert max_abs(mats[0] @ mats[0] - mats[0]) > TOL_INV
        assert self.check(mats) == "projector 0 is not Hermitian"

    def test_member_gates_come_before_orthogonality(self):
        p = np.diag([1.0, 0.0, 0.0])
        assert self.check([p, p, np.diag([0.0, 1.0, 1.0])]) == (
            "projector 2 is not rank one")

    def test_sound_frames(self):
        rng = np.random.default_rng(62)
        assert self.check(frame_projectors(HADAMARD)) is None  # tied diagonal
        for n in (1, 2, 5, 16, 64):
            assert self.check(frame_projectors(haar_unitary(n, rng))) is None

    @pytest.mark.parametrize("n", [2, 7, 31, 64])
    def test_column_rotated_into_neighbour(self, n):
        """Rotating column k towards column k+1 by eps makes ``P_k P_{k+1}``
        about ``eps |v_k| |v_{k+1}|`` and the sum's error about twice that:
        the angles straddle the TOL_INV gate at every size, and at n=31
        ``eps = 5e-10`` fails only completeness."""
        rng = np.random.default_rng(63 + n)
        frame = haar_unitary(n, rng)
        k = n // 2
        verdicts = set()
        for eps in (1e-13, 1e-11, 1e-10, 3e-10, 5e-10, 1e-9, 1e-7):
            bent = frame.copy()
            bent[:, k] = np.cos(eps) * frame[:, k] + np.sin(eps) * frame[:, (k + 1) % n]
            verdicts.add(self.check(frame_projectors(bent)))
        assert None in verdicts
        assert len(verdicts) > 1


class TestProjectorRoundtrip:
    def test_standard_basis_flip(self):
        ps = ProjectorSet.standard_basis(3)
        op = from_projector_flip(ps, (-1, 1, 1))
        assert np.array_equal(op.matrix, np.diag([-1.0 + 0j, 1.0, 1.0]))
        assert op.trace_class == 1

    def test_all_plus_gives_identity(self):
        ps = ProjectorSet.standard_basis(4)
        op = from_projector_flip(ps, (1, 1, 1, 1))
        assert max_abs(op.matrix - np.eye(4)) == 0.0
        assert op.trace_class == 4

    def test_rotated_set_balanced_signs(self):
        u = haar_unitary(4, np.random.default_rng(23))
        op = from_projector_flip(ProjectorSet.from_columns(u), (1, -1, -1, 1))
        assert abs(np.trace(op.matrix)) <= 1e-12
        assert involution_residual(op.matrix) <= 1e-12

    def test_bad_signs_rejected(self):
        ps = ProjectorSet.standard_basis(2)
        for signs in ((1, 2), (1.7, -1), (1,)):
            with pytest.raises(DomainError):
                from_projector_flip(ps, signs)

    @pytest.mark.parametrize("signs", [5, None])
    def test_signs_must_be_a_sequence(self, signs):
        with pytest.raises(DomainError) as exc:
            from_projector_flip(ProjectorSet.standard_basis(2), signs)
        assert str(exc.value) == f"signs must be a sequence of +1 and -1, got {signs!r}"

    def test_diag_involution_projectors(self):
        pd = to_projectors(EigenschaftOp.from_matrix(np.diag([1.0, -1.0])))
        by_sign = dict(zip(pd.signs, pd.projectors.projectors))
        assert max_abs(by_sign[1] - np.diag([1.0, 0.0])) <= 1e-12
        assert max_abs(by_sign[-1] - np.diag([0.0, 1.0])) <= 1e-12

    def test_symmetric_splitter_projector_axis(self):
        pd = to_projectors(hadamard())
        plus = pd.projectors.projectors[list(pd.signs).index(1)]
        axis = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)])
        assert max_abs(plus - np.outer(axis, axis)) <= 1e-12

    def test_identity_roundtrip_only(self):
        op = EigenschaftOp.from_matrix(np.eye(3))
        pd = to_projectors(op)
        assert pd.signs == (1, 1, 1)
        rebuilt = from_projector_flip(pd.projectors, pd.signs)
        assert max_abs(rebuilt.matrix - op.matrix) <= 1e-9

    def test_roundtrip_random_involutions(self):
        rng = np.random.default_rng(24)
        for n in range(2, 9):
            for _ in range(100):
                m = random_involution(n, rng)
                op = EigenschaftOp.from_matrix(m)
                pd = to_projectors(op)
                rebuilt = from_projector_flip(pd.projectors, pd.signs)
                assert max_abs(rebuilt.matrix - m) <= 1e-9
                assert rebuilt.trace_class == op.trace_class


def _signs_by_loop(eigenvalues) -> tuple[int, ...]:
    """The per-eigenvalue sign read ``to_projectors`` made before it read
    its signs off the trace class: the nearer of +-1."""
    return tuple(1 if lam > 0 else -1 for lam in eigenvalues)


class TestToProjectorsSigns:
    def test_signs_match_the_loop(self):
        """Every trace class at n = 1 to 9, the extreme and balanced ones
        at n = 33 and n = 64, and the flat worst case ``I + eps J/64``
        (``J`` all ones) with ``eps`` pushed to the involution gate: the
        trace-class signs are those of the per-eigenvalue loop, and every
        eigenvalue lies within the 3.2e-9 of its sign that ``to_projectors``'
        docstring proves."""
        rng = np.random.default_rng(2024)
        cases = [(n, tc) for n in range(1, 10) for tc in range(-n, n + 1, 2)]
        cases += [(33, tc) for tc in (-33, -1, 1, 33)]
        cases += [(64, tc) for tc in (-64, 0, 64)]
        mats = [random_involution(n, rng, trace_class=tc) for n, tc in cases]
        flat = np.eye(MAX_DIM) + 3.19e-9 * np.ones((MAX_DIM, MAX_DIM)) / MAX_DIM
        assert 0.99 * TOL_INV < involution_residual(flat) <= TOL_INV
        for m in mats + [flat]:
            op = EigenschaftOp(m)
            pd = to_projectors(op)
            eigenvalues = hermitian_eig(op.matrix).eigenvalues
            assert pd.signs == _signs_by_loop(eigenvalues)
            assert pd.signs.count(1) == op.multiplicities[0]
            assert max_abs(eigenvalues - pd.signs) <= 3.2e-9
        assert max_abs(hermitian_eig(flat).eigenvalues - 1.0) > 3.18e-9


def _domain_cases():
    for n in (1, 2, 3, 16, 33, 64):
        classes = {n, -n, n - 2, 2 - n, n % 2, -(n % 2)}
        for tc in sorted(classes):
            yield n, tc


class TestToProjectorsDomain:
    @pytest.mark.parametrize("n,trace_class", list(_domain_cases()))
    def test_closed_form_basis(self, n, trace_class):
        m = random_involution(n, np.random.default_rng(70 + 3 * n + trace_class),
                              trace_class=trace_class)
        op = EigenschaftOp.from_matrix(m)
        pd = to_projectors(op)
        again = to_projectors(op)

        rebuilt = from_projector_flip(pd.projectors, pd.signs)
        assert max_abs(rebuilt.matrix - m) <= 1e-9
        v = frame_of(pd.projectors.projectors)
        assert max_abs(v.conj().T @ v - np.eye(n)) <= TOL_ORTHO
        n_plus, n_minus = op.multiplicities
        assert pd.signs == (-1,) * n_minus + (1,) * n_plus
        assert again.signs == pd.signs
        assert all(a.tobytes() == b.tobytes() for a, b in
                   zip(pd.projectors.projectors, again.projectors.projectors))
        # Each member's vector is an eigenvector of H for its sign, and the
        # frame diagonalises H to 1e-13.
        assert max_abs(m @ v - v * np.array(pd.signs)) <= 1e-13
        t = v.conj().T @ m @ v
        assert max_abs(t - np.diag(np.diag(t))) < 1e-13

    @pytest.mark.parametrize("n", [2, 8, 32])
    @pytest.mark.parametrize("eps", [1e-7, 1e-6])
    @pytest.mark.parametrize("shape", ["scaled", "split"])
    def test_plain_constructor_keeps_spectral_gate(self, n, eps, shape):
        """The constructor refuses both near-involutions at the involution
        gate, before ``to_projectors`` could see them.

        ``scaled`` is ``(1 + eps) H``, eigenvalues ``+-(1 + eps)``.
        ``split`` couples two states of one eigenspace of a diagonal
        involution by ``eps``: the eigenvalue splits to ``1 +- eps`` and
        ``H^2`` gains an off-diagonal ``2 eps``, while the diagonal of ``H``
        stays at exactly 1."""
        if shape == "scaled":
            m = (1.0 + eps) * random_involution(n, np.random.default_rng(80 + n),
                                                trace_class=0)
        else:
            m = np.diag([1.0, 1.0] + [-1.0, 1.0] * ((n - 2) // 2)).astype(complex)
            m[0, 1] = m[1, 0] = eps
        assert door_message(m) == (
            f"not an involution: residual {2.0 * eps:.3e} exceeds 1e-10"
        )

    def test_range_short_of_its_rank_is_refused(self):
        """``diag(-1, -1, 3)`` has trace 1, so the trace promises two +1
        directions, but ``(I + H)/2`` has rank one.  The constructor
        refuses it and its mirror image at the involution gate."""
        for diag in ([-1.0, -1.0, 3.0], [1.0, 1.0, -3.0]):
            assert door_message(np.diag(diag)) == (
                "not an involution: residual 8.000e+00 exceeds 1e-10"
            )

    def test_plain_constructor_keeps_hermiticity_gate(self):
        """The constructor refuses a Hermiticity residual of 1e-9 at
        ``TOL_HERM``."""
        m = random_involution(8, np.random.default_rng(90), trace_class=2)
        m[0, 1] += 1e-9
        assert door_message(m) == (
            "not Hermitian: residual 1.000e-09 exceeds 1e-10"
        )

    def test_plain_constructor_admits_exact_spectrum(self):
        """Coupling the two eigenspaces of ``diag(1, -1)`` by 1e-7 moves
        the eigenvalues by only 5e-15: admitted, and the projectors are
        those of the perturbed matrix (roundtrip at the size of that move),
        not the ranges of ``(I +- H)/2``, which would miss by 5e-8."""
        m = np.array([[1.0, 1e-7], [1e-7, -1.0]])
        pd = to_projectors(EigenschaftOp(m))
        rebuilt = from_projector_flip(pd.projectors, pd.signs)
        assert max_abs(rebuilt.matrix - m) <= 1e-13


def _hermitian_cases():
    """Haar-frame involutions at trace classes 0, +-1 and +-(n - 2), as the
    parity of n allows, and ``S/sqrt(n)`` for the n that are powers of 2."""
    for n in (1, 2, 3, 4, 7, 16, 31, 32, 64):
        for tc in sorted({0, 1, -1, n - 2, 2 - n}):
            if abs(tc) <= n and (n - tc) % 2 == 0:
                yield n, tc
        if n & (n - 1) == 0:
            yield n, "sylvester"


class TestProjectorsHermitianToTheBit:
    @staticmethod
    def check(ps):
        """Each member equals its conjugate transpose bit for bit, no
        diagonal imaginary part is ``-0.0`` or below, and the member's
        written entries have at most the ``n^2 + 1`` distinct magnitudes of
        such a matrix."""
        n = ps.dim
        for p in ps.projectors:
            assert np.array_equal(p, p.conj().T)
            assert not np.signbit(np.diagonal(p).imag).any()
            entries = serialize.matrix_to_dict(p)["entries"]
            assert np.unique(np.abs(entries)).size <= n * n + 1

    @pytest.mark.parametrize("n,case", list(_hermitian_cases()))
    def test_projectors_reach_the_repr_floor(self, n, case):
        rng = np.random.default_rng(
            [n, n + 1 if case == "sylvester" else n + case])
        if case == "sylvester":
            m = sylvester_hadamard(n) / np.sqrt(n)
        else:
            m = random_involution(n, rng, trace_class=case)
        self.check(to_projectors(EigenschaftOp(m)).projectors)
        self.check(ProjectorSet.from_columns(haar_unitary(n, rng)))


class TestComplementFamily:
    def test_dim3_standard_basis(self):
        fam = complement_family(ProjectorSet.standard_basis(3))
        expected = [np.diag(d) for d in ([-1.0, 1, 1], [1, -1.0, 1], [1, 1, -1.0])]
        for op, want in zip(fam, expected):
            assert max_abs(op.matrix - want) == 0.0
        total = sum(op.matrix for op in fam)
        assert max_abs(total - np.eye(3)) == 0.0

    def test_dim4_half_sum_identity(self):
        fam = complement_family(ProjectorSet.standard_basis(4))
        total = sum(op.matrix for op in fam)
        assert max_abs(total / 2.0 - np.eye(4)) == 0.0

    def test_dim4_traceless_triple(self):
        fam = complement_family(ProjectorSet.standard_basis(4), kind="traceless")
        expected = [
            np.diag([1.0, -1.0, 1.0, -1.0]),
            np.diag([1.0, 1.0, -1.0, -1.0]),
            np.diag([1.0, -1.0, -1.0, 1.0]),
        ]
        for op, want in zip(fam, expected):
            assert max_abs(op.matrix - want) == 0.0
            assert op.trace_class == 0

    def test_family_identities_random_sets(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            ps3 = ProjectorSet.from_columns(haar_unitary(3, rng))
            total3 = sum(op.matrix for op in complement_family(ps3))
            assert max_abs(total3 - np.eye(3)) <= 1e-12
            ps4 = ProjectorSet.from_columns(haar_unitary(4, rng))
            total4 = sum(op.matrix for op in complement_family(ps4))
            assert max_abs(total4 / 2.0 - np.eye(4)) <= 1e-12

    def test_members_commute(self):
        rng = np.random.default_rng(26)
        ps = ProjectorSet.from_columns(haar_unitary(4, rng))
        for kind in ("flip", "traceless"):
            fam = complement_family(ps, kind=kind)
            table = algebra_table(fam)
            assert table.max_commutator <= 1e-12

    def test_traceless_needs_dim4(self):
        with pytest.raises(DomainError):
            complement_family(ProjectorSet.standard_basis(3), kind="traceless")

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            complement_family(ProjectorSet.standard_basis(3), kind="bogus")


class TestAlgebraTable:
    def test_dim3_product_is_negated_third(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            ps = ProjectorSet.from_columns(haar_unitary(3, rng))
            h1, h2, h3 = complement_family(ps)
            assert max_abs(h1.matrix @ h2.matrix + h3.matrix) <= 1e-12
            table = algebra_table([h1, h2, h3])
            exp = table.products[(0, 1)]
            assert exp.expressible and exp.residual <= 1e-12
            assert table.max_commutator <= 1e-12

    def test_dim4_flip_family_product(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            ps = ProjectorSet.from_columns(haar_unitary(4, rng))
            fam = complement_family(ps)
            prod = fam[0].matrix @ fam[1].matrix
            combo = (
                fam[0].matrix + fam[1].matrix - fam[2].matrix - fam[3].matrix
            ) / 2.0
            assert max_abs(prod - combo) <= 1e-12
            # Equivalent identity-free form of the same relation.
            assert max_abs(prod - (fam[0].matrix + fam[1].matrix - np.eye(4))) <= 1e-12
            table = algebra_table(fam)
            assert all(p.expressible for p in table.products.values())

    def test_dim4_traceless_product(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            ps = ProjectorSet.from_columns(haar_unitary(4, rng))
            t1, t2, t3 = complement_family(ps, kind="traceless")
            assert max_abs(t1.matrix @ t2.matrix - t3.matrix) <= 1e-12
            table = algebra_table([t1, t2, t3])
            assert table.products[(0, 1)].residual <= 1e-12
            assert table.max_commutator <= 1e-12

    def test_expansion_reconstructs_product(self):
        fam = complement_family(ProjectorSet.standard_basis(4))
        table = algebra_table(fam)
        basis = [np.eye(4)] + [op.matrix for op in fam]
        for (i, j), exp in table.products.items():
            recon = sum(c * b for c, b in zip(exp.coefficients, basis))
            assert max_abs(fam[i].matrix @ fam[j].matrix - recon) <= 1e-12

    def test_inexpressible_product_flagged(self):
        # Two non-commuting involutions: their product leaves the span.
        a = EigenschaftOp.from_matrix(np.diag([1.0, -1.0]))
        b = hadamard()
        table = algebra_table([a, b])
        assert not table.products[(0, 1)].expressible
        assert table.max_commutator > 0.1

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            algebra_table([hadamard(), EigenschaftOp.from_matrix(np.eye(3))])

    def test_empty_family(self):
        with pytest.raises(DomainError, match="^family must be non-empty$"):
            algebra_table([])


def _reference_families():
    rng = np.random.default_rng(31)
    d = EigenschaftOp.from_matrix(np.diag([1.0, -1.0]))
    for n in (2, 3, 4, 8, 16):
        ps = ProjectorSet.from_columns(haar_unitary(n, rng))
        yield f"flip-{n}", complement_family(ps)
    ps4 = ProjectorSet.from_columns(haar_unitary(4, rng))
    yield "traceless-4", complement_family(ps4, kind="traceless")
    yield "kron-hadamard", list(build_kron_family(hadamard(), hadamard()))
    yield "kron-mixed", list(build_kron_family(hadamard(), d))
    random_h2 = [build_h2(H2Params(*rng.uniform(-np.pi, np.pi, 2)))
                 for _ in range(2)]
    yield "kron-random", list(build_kron_family(*random_h2))
    yield "hadamard-diag", [hadamard(), d]
    yield "random-6", [EigenschaftOp.from_matrix(random_involution(6, rng))
                       for _ in range(5)]


REFERENCE_FAMILIES = list(_reference_families())


@pytest.mark.parametrize("family", [f for _, f in REFERENCE_FAMILIES],
                         ids=[name for name, _ in REFERENCE_FAMILIES])
def test_algebra_table_matches_pairwise_reference(family):
    """One factorisation per table gives what one ``lstsq`` per product
    gives: the same keys, coefficients and residuals within 1e-12, the same
    verdicts and commutators within 1e-13."""
    table = algebra_table(family)
    products, commutators = pairwise_table(family)
    assert table.products.keys() == products.keys()
    assert table.commutator_norms.keys() == commutators.keys()
    for key, (coeffs, residual, expressible) in products.items():
        got = table.products[key]
        assert max_abs(got.coefficients - coeffs) <= 1e-12
        assert abs(got.residual - residual) <= 1e-12
        assert got.expressible is expressible
    for key, norm in commutators.items():
        assert abs(table.commutator_norms[key] - norm) <= 1e-13


class TestKronFamily:
    def test_diagonal_factors_give_balanced_family(self):
        d = EigenschaftOp.from_matrix(np.diag([1.0, -1.0]))
        fam = build_kron_family(d, d)
        expected = [
            np.diag([1.0, -1.0, 1.0, -1.0]),
            np.diag([1.0, 1.0, -1.0, -1.0]),
            np.diag([1.0, -1.0, -1.0, 1.0]),
        ]
        for op, want in zip(fam, expected):
            assert max_abs(op.matrix - want) == 0.0

    def test_symmetric_factors(self):
        fam = build_kron_family(hadamard(), hadamard())
        for op in fam:
            assert op.trace_class == 0
            assert involution_residual(op.matrix) <= 1e-14
        # Third member is the product of the first two.
        assert max_abs(fam[0].matrix @ fam[1].matrix - fam[2].matrix) <= 1e-14

    def test_mixed_factors_commute(self):
        d = EigenschaftOp.from_matrix(np.diag([1.0, -1.0]))
        fam = build_kron_family(hadamard(), d)
        table = algebra_table(list(fam))
        assert table.max_commutator <= 1e-12
        for op in fam:
            assert abs(np.trace(op.matrix)) <= 1e-14

    def test_rejects_nonzero_trace_factor(self):
        eye2 = EigenschaftOp.from_matrix(np.eye(2))
        with pytest.raises(DomainError, match="traceless"):
            build_kron_family(eye2, hadamard())

    def test_rejects_wrong_dimension(self):
        big = EigenschaftOp.from_matrix(np.eye(3))
        with pytest.raises(ShapeError):
            build_kron_family(big, hadamard())


class TestStructureRelations:
    """The closed-form constraints hold for every involution in the
    rank-one-deficiency branches, not just constructed ones."""

    @pytest.mark.parametrize("trace_class", [1, -1])
    def test_dim3_universality(self, trace_class):
        rng = np.random.default_rng(30 + trace_class)
        for _ in range(200):
            m = random_involution(3, rng, trace_class=trace_class)
            report = validate(m)
            assert report.trace_class == trace_class
            rel = report.relation_residuals
            mags = [v for k, v in rel.items() if k.startswith("mag_")]
            assert len(mags) == 3 and max(mags) <= 1e-9
            for k, v in rel.items():
                if k.startswith("closure_"):
                    assert v <= 1e-9

    @pytest.mark.parametrize("trace_class", [2, -2])
    def test_dim4_universality(self, trace_class):
        rng = np.random.default_rng(40 + trace_class)
        for _ in range(200):
            m = random_involution(4, rng, trace_class=trace_class)
            report = validate(m)
            assert report.trace_class == trace_class
            rel = report.relation_residuals
            mags = [v for k, v in rel.items() if k.startswith("mag_")]
            assert len(mags) == 6 and max(mags) <= 1e-9
            for k, v in rel.items():
                if k.startswith("closure_"):
                    assert v <= 1e-9


class TestValidate:
    def test_symmetric_splitter_clean_report(self):
        report = validate(hadamard())
        assert report.hermiticity_residual <= 1e-15
        assert report.unitarity_residual <= 1e-15
        assert report.involution_residual <= 1e-15
        assert report.trace_class == 0
        assert not report.trace_class_suspect
        assert max(report.relation_residuals.values()) <= 1e-15

    def test_constructed_diag_relations(self):
        spec = DiagSpec(dim=3, alphas=(1 / 3,) * 3, trace_sign=1, phases=(0.3, -0.5))
        report = validate(build_from_diag(spec))
        assert max(report.relation_residuals.values()) <= 1e-12

    def test_generic_hermitian_reports_nonzero_involution(self):
        m = random_hermitian(4, np.random.default_rng(31))
        report = validate(m)
        assert report.involution_residual > 1e-3
        assert report.hermiticity_residual <= 1e-12

    def test_trace_class_parity_rounding(self):
        report = validate(np.diag([0.9, 0.9, 0.9]))
        # dim 3 has odd parity: nearest odd integer to 2.7 is 3.
        assert report.trace_class == 3
        assert report.trace_class_suspect

    @pytest.mark.parametrize("alphas, phases, keys", [
        ((1.0, 0.0, 0.0), (0.0, 0.0), ["mag_12", "mag_13", "mag_23"]),
        ((1.0, 1 / 3, 1 / 3, 1 / 3), (0.3, -0.5, 1.0),
         ["mag_12", "mag_13", "mag_14", "mag_23", "mag_24", "mag_34"]),
    ])
    def test_closure_through_a_vanishing_amplitude_is_omitted(
            self, alphas, phases, keys):
        """With alpha_1 = trace_sign the first row's off-diagonals vanish,
        so no closure through them has a phase to compare."""
        spec = DiagSpec(dim=len(alphas), alphas=alphas, trace_sign=1, phases=phases)
        report = validate(build_from_diag(spec))
        assert list(report.relation_residuals) == keys
        assert max(report.relation_residuals.values()) <= 1e-12

    def test_traceless_dim4_skips_relations(self):
        d = EigenschaftOp.from_matrix(np.diag([1.0, -1.0]))
        fam = build_kron_family(d, hadamard())
        report = validate(fam[2])
        assert report.trace_class == 0
        assert report.relation_residuals == {}


class TestWrapPhase:
    def test_half_open_interval(self):
        assert wrap_phase(np.pi) == pytest.approx(np.pi)
        assert wrap_phase(-np.pi) == pytest.approx(np.pi)
        assert wrap_phase(3 * np.pi) == pytest.approx(np.pi)
        assert wrap_phase(0.0) == 0.0
        assert wrap_phase(3 * np.pi / 2) == pytest.approx(-np.pi / 2)

    def test_array_input(self):
        out = wrap_phase(np.array([0.0, 2 * np.pi, -2 * np.pi]))
        assert np.allclose(out, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("x, message", [
        (None, "numeric"), ("x", "numeric"), ([0.0, [1.0]], "numeric"),
        (1j, "real"), (float("inf"), "finite"), (np.array([0.0, np.nan]), "finite"),
    ], ids=["None", "string", "ragged", "complex", "inf", "nan-in-array"])
    def test_refused_in_its_own_terms(self, x, message):
        """``None`` gave ``nan``, a string numpy's ``ValueError``, a complex
        number ``TypeError`` and an infinity a ``RuntimeWarning``."""
        with pytest.raises(DomainError) as exc:
            wrap_phase(x)
        assert str(exc.value) == f"phase must be {message}"

    def test_every_finite_real_is_admitted(self):
        """Past ``MAX_MAGNITUDE`` too: ``beat_trace`` wraps the detuning
        times the time, up to ``2e200``."""
        largest = np.finfo(float).max
        out = wrap_phase(np.array([2e200, largest, -largest, 5e-324]))
        assert np.all((-np.pi < out) & (out <= np.pi))
        assert (wrap_phase(True), wrap_phase(np.float32(0.5))) == (1.0, 0.5)
        (sample,) = beat_trace(TwoLevelSystem(1e100, -1e100, hadamard()), [1e100])
        assert sample.delta_phi == wrap_phase(2e200)
