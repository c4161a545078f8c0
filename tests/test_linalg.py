import copy
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from eigenschaft import linalg, operators, states
from eigenschaft.cli import main
from eigenschaft.dynamics import TwoLevelSystem
from eigenschaft.errors import (
    ConstructionError,
    ConvergenceError,
    DomainError,
    ShapeError,
)
from eigenschaft.interferometer import (
    FringeRecord,
    InterferometerConfig,
    run_interferometer,
    uniform_sweep,
)
from eigenschaft.linalg import (
    as_dim,
    as_hermitian,
    as_square,
    freeze_fields,
    hermitian_eig,
    hermiticity_residual,
    involution_residual,
    max_abs,
    unitarity_residual,
)
from eigenschaft.operators import (
    DiagSpec,
    EigenschaftOp,
    ProjectorSet,
    algebra_table,
    complement_family,
    from_projector_flip,
    hadamard,
    validate,
)
from eigenschaft.states import DensityMatrix, StateVector, decompose_state

from helpers import haar_unitary, random_hermitian, random_involution

DATA = Path(__file__).parent / "data"
RNG = lambda seed: np.random.default_rng(seed)  # noqa: E731


class TestAsSquare:
    @pytest.mark.parametrize("a, error", [
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), DomainError),
        (np.array([[1.0, 0.0], [0.0, np.inf]]), DomainError),
        (np.ones(3), ShapeError),
        (np.ones((0, 0)), ShapeError),
        (np.ones((2, 3)), ShapeError),
    ], ids=["nan", "inf", "1-d", "empty", "non-square"])
    def test_rejects(self, a, error):
        with pytest.raises(error):
            as_square(a)

    def test_coerces_to_complex_without_copying_complex_input(self):
        m = np.eye(2, dtype=complex)
        assert as_square(m) is m
        assert as_square([[1, 0], [0, 1]]).dtype == complex


class TestAsHermitian:
    SKEW = np.array([[1.0, 1e-7], [0.0, -1.0]])

    def test_returns_the_square_matrix(self):
        m = np.eye(2, dtype=complex)
        assert as_hermitian(m) is m

    @pytest.mark.parametrize("door", [
        as_hermitian,
        hermitian_eig,
        EigenschaftOp,
        DensityMatrix,
        lambda m: decompose_state(m, StateVector.basis_state(2, 0)),
    ], ids=["as_hermitian", "hermitian_eig", "EigenschaftOp", "DensityMatrix",
            "decompose_state"])
    def test_every_door_reports_the_residual(self, door):
        """One gate and one message for every Hermitian door."""
        with pytest.raises(DomainError) as exc:
            door(self.SKEW)
        assert str(exc.value) == "not Hermitian: residual 1.000e-07 exceeds 1e-10"


class TestOneCoercionPerDoor:
    """Each matrix door runs ``as_square`` once and computes its residuals
    on the array it returned."""

    @pytest.fixture
    def coercions(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a)
            return as_square(a)
        for module in (linalg, operators, states):
            monkeypatch.setattr(module, "as_square", counted)
        return calls

    @pytest.mark.parametrize("door", [
        EigenschaftOp,
        validate,
        hermitian_eig,
        lambda m: decompose_state(m, StateVector.basis_state(8, 3)),
    ], ids=["EigenschaftOp", "validate", "hermitian_eig", "decompose_state"])
    def test_one_call_per_matrix(self, coercions, door):
        door(random_involution(8, RNG(32)))
        assert len(coercions) == 1

    def test_one_call_per_member_of_a_family(self, coercions):
        ps = ProjectorSet.from_columns(haar_unitary(16, RNG(33)))
        coercions.clear()
        complement_family(ps)
        assert len(coercions) == ps.dim


#: Each integer argument: its noun, the error it raises, a call that puts
#: ``x`` through it with every other input valid, and a value it admits.
INTEGER_DOORS = {
    "as_dim": ("dim", DomainError, as_dim, 2),
    "uniform_sweep": ("sweep size", DomainError, uniform_sweep, 8),
    "basis_state": ("basis index", DomainError,
                    lambda x: StateVector.basis_state(2, x), 1),
    "noise seed": ("noise seed", DomainError,
                   lambda x: run_interferometer(
                       StateVector.basis_state(2, 0),
                       InterferometerConfig(hadamard(), [0.0, 1.0], 0.1), x), 9),
    "DiagSpec.dim": ("dim", ConstructionError,
                     lambda x: DiagSpec(x, (1 / 3,) * 3, 1, (0.0, 0.0)), 3),
    "DiagSpec.trace_sign": ("trace_sign", ConstructionError,
                            lambda x: DiagSpec(3, (1 / 3,) * 3, x, (0.0, 0.0)), 1),
    "signs": ("signs", DomainError,
              lambda x: from_projector_flip(ProjectorSet.standard_basis(2), [x, -1]),
              1),
}


class TestIntegerDoors:
    @pytest.mark.parametrize("x", [True, 1.5, "1", None], ids=repr)
    @pytest.mark.parametrize("door", INTEGER_DOORS)
    def test_refuses_what_is_not_an_integer(self, door, x):
        """One rule, ``linalg.as_int``, at every integer argument: ``bool``
        is refused too, as in JSON files."""
        noun, error, call, _ = INTEGER_DOORS[door]
        with pytest.raises(error) as exc:
            call(x)
        assert type(exc.value) is error
        assert str(exc.value) == f"{noun} must be an integer, got {x!r}"

    @pytest.mark.parametrize("door", INTEGER_DOORS)
    def test_admits_a_numpy_integer(self, door):
        _, _, call, valid = INTEGER_DOORS[door]
        call(np.int64(valid))


class TestFreezeFields:
    def test_arrays_become_read_only_copies(self):
        @dataclass(frozen=True)
        class Holder:
            single: np.ndarray
            label: str

            def __post_init__(self):
                freeze_fields(self, single=self.single,
                              label=self.label.upper())

        a = np.arange(3.0)
        h = Holder(a, "x")
        assert h.label == "X"
        assert np.array_equal(h.single, a)
        assert not h.single.flags.writeable
        assert not np.shares_memory(h.single, a)
        assert a.flags.writeable

    @pytest.mark.parametrize("kind", [
        "EigenschaftOp", "ProjectorSet", "StateVector", "DensityMatrix",
        "InterferometerConfig", "FringeRecord",
    ])
    def test_package_dataclasses_never_freeze_the_callers_arrays(self, kind):
        given, stored = _given_and_stored(kind)
        for g, x in zip(given, stored, strict=True):
            assert np.array_equal(x, g)
            assert not x.flags.writeable
            assert not np.shares_memory(x, g)
            assert g.flags.writeable


def _given_and_stored(kind):
    """Arrays passed to one of the package's frozen dataclasses, already in
    the dtype it stores, and the arrays it stored."""
    phases = np.linspace(0.0, 1.0, 4)
    if kind == "EigenschaftOp":
        m = np.diag([1.0, -1.0]).astype(complex)
        return [m], [EigenschaftOp(m).matrix]
    if kind == "ProjectorSet":
        given = [np.diag([1.0, 0.0]).astype(complex),
                 np.diag([0.0, 1.0]).astype(complex)]
        return given, list(ProjectorSet(tuple(given)).projectors)
    if kind == "StateVector":
        v = np.array([1.0, 0.0], dtype=complex)
        return [v], [StateVector(v).amplitudes]
    if kind == "DensityMatrix":
        rho = np.full((2, 2), 0.5, dtype=complex)
        return [rho], [DensityMatrix(rho).matrix]
    if kind == "InterferometerConfig":
        return [phases], [InterferometerConfig(hadamard(), phases).sweep_phases]
    i1, i2 = phases / 2.0, 1.0 - phases / 2.0
    fr = FringeRecord(phases, i1, i2)
    return [phases, i1, i2], [fr.phases, fr.intensity_port1, fr.intensity_port2]


class TestDataclassIdentity:
    """Dataclasses that hold arrays or dicts compare and hash by identity;
    a tolerance-free ``==`` over their fields would invite misuse."""

    @pytest.mark.parametrize("kind", [
        "EigenschaftOp", "ProjectorSet", "StateVector", "DensityMatrix",
        "InterferometerConfig", "FringeRecord", "TwoLevelSystem",
        "Spectrum", "AlgebraTable", "ValidationReport",
    ])
    def test_equality_and_hash(self, kind):
        a = _instance(kind)
        b = copy.deepcopy(a)
        assert a == a
        assert a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


def _instance(kind):
    """One instance of a package dataclass that holds arrays or dicts (with
    more than one sample where the array is a sweep)."""
    phases = np.linspace(0.0, 1.0, 4)
    return {
        "EigenschaftOp": lambda: hadamard(),
        "ProjectorSet": lambda: ProjectorSet.standard_basis(2),
        "StateVector": lambda: StateVector.basis_state(2, 0),
        "DensityMatrix": lambda: DensityMatrix(np.full((2, 2), 0.5)),
        "InterferometerConfig": lambda: InterferometerConfig(hadamard(), phases),
        "FringeRecord": lambda: FringeRecord(phases, phases / 2.0,
                                             1.0 - phases / 2.0),
        "TwoLevelSystem": lambda: TwoLevelSystem(1.0, 0.0, hadamard()),
        "Spectrum": lambda: hermitian_eig(np.eye(2)),
        "AlgebraTable": lambda: algebra_table([hadamard()]),
        "ValidationReport": lambda: validate(np.eye(3)),
    }[kind]()


class TestHermitianEig:
    def test_diagonal_case(self):
        s = hermitian_eig(np.diag([1.0, -1.0]))
        assert np.allclose(s.eigenvalues, [-1.0, 1.0])
        assert max_abs(np.abs(s.eigenvectors) - np.array([[0, 1], [1, 0]])) < 1e-12

    def test_hadamard_spectrum(self):
        s = hermitian_eig(hadamard().matrix)
        assert max_abs(s.eigenvalues - np.array([-1.0, 1.0])) < 1e-12

    def test_rank_one_deficiency_spectrum(self):
        # I - 2P for a rank-1 projector has eigenvalues (-1, 1, 1).
        p = np.full((3, 3), 1.0 / 3.0)
        s = hermitian_eig(np.eye(3) - 2 * p)
        assert max_abs(s.eigenvalues - np.array([-1.0, 1.0, 1.0])) < 1e-10

    def test_random_hermitian_properties(self):
        rng = RNG(3)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            a = random_hermitian(n, rng)
            s = hermitian_eig(a)
            assert np.all(np.diff(s.eigenvalues) >= 0)
            assert max_abs(a @ s.eigenvectors - s.eigenvectors * s.eigenvalues) <= 1e-10
            gram = s.eigenvectors.conj().T @ s.eigenvectors
            assert max_abs(gram - np.eye(n)) <= 1e-10
            recon = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T
            assert max_abs(a - recon) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 64])
    @pytest.mark.parametrize("kind", ["involution", "clusters", "distinct",
                                      "scaled"])
    def test_planted_spectrum(self, n, kind):
        """``U diag(w) U^dag`` for a Haar ``U`` has the spectrum ``w`` by
        construction, which checks the solver against nothing it computes
        itself.  The bound is 1e-10 at unit scale, scaled like the
        reconstruction gate for the input far above it."""
        rng = RNG(100 + n)
        if kind == "involution":
            w = rng.choice([-1.0, 1.0], size=n)
        elif kind == "clusters":
            w = rng.choice([-1.0, -1.0 + 1e-9, 0.25, 1.0], size=n)
        else:
            w = rng.uniform(-3.0, 3.0, size=n)
        if kind == "scaled":
            w = 1e6 * w
        u = haar_unitary(n, rng)
        a = (u * w) @ u.conj().T
        a = (a + a.conj().T) / 2.0
        s = hermitian_eig(a)
        scale = max(1.0, float(np.max(np.abs(w))))
        assert max_abs(s.eigenvalues - np.sort(w)) <= 1e-10 * scale
        v = s.eigenvectors
        assert max_abs(v.conj().T @ v - np.eye(n)) <= 1e-10
        assert max_abs(a @ v - v * s.eigenvalues) <= 1e-10 * scale

    def test_dim64_stress(self):
        a = random_hermitian(64, RNG(4))
        s = hermitian_eig(a)
        assert max_abs(a @ s.eigenvectors - s.eigenvectors * s.eigenvalues) <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            hermitian_eig(np.ones((2, 3)))

    def test_convergence_error_is_exported(self):
        assert issubclass(ConvergenceError, RuntimeError)

    def test_lapack_failure_is_convergence_error(self, monkeypatch, capsys):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(ConvergenceError, match="did not converge"):
            hermitian_eig(np.eye(2))
        assert main(["convert", "--op", str(DATA / "hadamard_op.json")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: eigensolver did not converge")

    def test_non_finite_result_is_convergence_error(self, monkeypatch):
        """A NaN spectrum fails the post-checks rather than passing them
        (and so letting ``DensityMatrix`` accept a matrix that is not
        positive semidefinite)."""
        def nan_spectrum(a):
            return np.full(a.shape[0], np.nan), np.full(a.shape, np.nan + 0j)

        m = np.array([[0.5, 0.5], [0.5, 0.5]])
        monkeypatch.setattr(np.linalg, "eigh", nan_spectrum)
        with pytest.raises(ConvergenceError, match="residual nan"):
            hermitian_eig(m)
        with pytest.raises(ConvergenceError):
            DensityMatrix(m)

    def test_wrong_eigenvalues_fail_the_reconstruction_check(self, monkeypatch):
        """True eigenvectors with their eigenvalues reversed pass the
        orthonormality check and are caught by the reconstruction check."""
        eigh = np.linalg.eigh

        def reversed_spectrum(a):
            w, v = eigh(a)
            return w[::-1], v

        m = np.diag([1.0, 2.0, 3.0])
        monkeypatch.setattr(np.linalg, "eigh", reversed_spectrum)
        with pytest.raises(ConvergenceError,
                           match="spectral reconstruction residual"):
            hermitian_eig(m)


class TestUnitarySelfAdjointTheorem:
    """Unitary and self-adjoint together mean squaring to the identity,
    and an involutive unitary is forced to be self-adjoint."""

    def test_forward_direction(self):
        rng = RNG(6)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            h = random_involution(n, rng)
            assert hermiticity_residual(h) <= 1e-12
            assert unitarity_residual(h) <= 1e-12
            assert involution_residual(h) <= 1e-12

    def test_reverse_direction(self):
        rng = RNG(7)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            u = haar_unitary(n, rng)
            # Unitary conjugation of a +-1 permutation-free diagonal stays
            # involutive and unitary; the theorem says it must be Hermitian.
            m = (u * np.sign(rng.normal(size=n) + 0.25)) @ u.conj().T
            assert involution_residual(m) <= 1e-12
            assert unitarity_residual(m) <= 1e-12
            assert hermiticity_residual(m) <= 1e-12

    def test_reverse_direction_swap_matrix(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert involution_residual(swap) == 0.0
        assert unitarity_residual(swap) == 0.0
        assert hermiticity_residual(swap) == 0.0
