"""Hermitian involutions: construction, projector interconversion, algebra.

An operator that is simultaneously self-adjoint and unitary squares to the
identity, so its spectrum is contained in {+1, -1} and its trace is an
integer with the parity of the dimension (the "trace class"), which fixes
the multiplicities ``(n +- tc) / 2`` of +-1.  This module provides:

* closed-form constructors in dimension 2 (mixing angle plus relative
  phase) and dimensions 3 and 4 in the rank-one-deficiency branches, where
  the prescribed diagonal determines every off-diagonal magnitude;
* conversion to and from complete rank-1 projector families (sign flips
  over a resolution of the identity), which covers every dimension;
* product/commutator tables for operator families built over a shared
  projector set;
* a residual report (``validate``) quantifying how far an arbitrary matrix
  is from satisfying each of the structural constraints.

Sign convention for the closed-form branches: with trace sign ``s`` the
operator is ``s * (I - 2 P)`` for a rank-1 projector ``P``, which forces
every off-diagonal amplitude to carry the sign ``-s``.  Amplitudes are kept
as signed reals so that the dependent relative phases are exact differences
of the independent ones (not merely differences modulo pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, DomainError, ShapeError
from .linalg import (
    MAX_DIM,
    TOL_HERM,
    TOL_INV,
    as_dim,
    as_int,
    as_real,
    as_scalars,
    as_square,
    check_residual,
    freeze_fields,
    hermitian_eig,
    hermiticity_kernel,
    involution_kernel,
    max_abs,
    numeric_array,
    unitarity_kernel,
)

#: Off-diagonal magnitudes below this leave the associated phase undefined.
PHASE_EPS = 1e-12
#: A product counts as expressible in span{I, family} below this residual.
EXPRESSIBLE_TOL = 1e-9
#: A trace must lie this close to the integer it stands for: an
#: involution's trace class, a projector's unit trace.
TOL_SPECTRUM = 1e-8
#: ``DiagSpec`` admits alphas whose sum lies this close to the trace,
#: ``trace_sign * (dim - 2)``.
DIAG_SUM_TOL = 1e-12


def wrap_phase(x):
    """Wrap angle(s) to the half-open interval (-pi, pi].

    Takes any finite real number or evenly nested array of them, with no
    bound on the magnitude (a phase derived from admitted inputs can pass
    ``MAX_MAGNITUDE``).  Anything else is refused with ``DomainError``:
    ``phase must be numeric`` for non-numbers and unevenly nested
    sequences, ``phase must be real`` for complex input and ``phase must
    be finite`` for NaN and infinities.

    A Python ``float`` is wrapped in float arithmetic, with no array:
    float ``%`` and ``np.mod`` are both ``fmod`` with the same sign fix, so
    its bits equal the array path's.  Every other input, numpy scalars
    included, takes the array path.
    """
    if type(x) is float:
        if not math.isfinite(x):
            raise DomainError("phase must be finite")
        return math.pi - (math.pi - x) % (2.0 * math.pi)
    a = numeric_array(x, "phase")
    if a.dtype.kind == "c":
        raise DomainError("phase must be real")
    a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise DomainError("phase must be finite")
    wrapped = np.pi - np.mod(np.pi - a, 2.0 * np.pi)
    if a.ndim == 0:
        return float(wrapped)
    return wrapped


def _trace_class(m: np.ndarray) -> tuple[complex, int, float]:
    """The trace, the nearest integer of the dimension's parity clamped to
    ``[-dim, dim]``, and their distance."""
    dim = m.shape[0]
    parity = dim % 2
    trace = complex(np.trace(m))
    k = int(round((trace.real - parity) / 2.0)) * 2 + parity
    k = max(-dim, min(dim, k))
    return trace, k, abs(trace - k)


def _check_dim(dim: int) -> None:
    if not dim <= MAX_DIM:
        raise ShapeError(f"dimension {dim} exceeds MAX_DIM = {MAX_DIM}")


def check_operator(dim, hermiticity_residual, involution_residual, trace,
                   trace_class, trace_class_distance) -> None:
    """The operator gate, on the numbers ``validate`` reports: ``ShapeError``
    past ``MAX_DIM`` rows, then ``DomainError`` past ``TOL_HERM``, ``TOL_INV``
    or ``TOL_SPECTRUM`` from ``trace_class``, in that order, NaN included."""
    _check_dim(dim)
    check_residual(hermiticity_residual, TOL_HERM, "not Hermitian")
    check_residual(involution_residual, TOL_INV, "not an involution")
    if not trace_class_distance <= TOL_SPECTRUM:
        raise DomainError(f"trace {trace!r} is {trace_class_distance:.3e} away "
                          f"from the nearest admissible trace class {trace_class}")


@dataclass(frozen=True, eq=False)
class EigenschaftOp:
    """A Hermitian involution; its trace class and multiplicities
    ``(n_plus, n_minus)`` are read off the trace.

    The constructor is the package's one operator gate: it refuses past
    ``MAX_DIM`` rows before any residual, then computes the Hermiticity
    residual, the involution residual and the trace class once each and
    passes them to :func:`check_operator`.  The residual gates leave the
    trace up to ``n^(3/2) TOL_INV / 2`` off: at n = 64, ``S/8 + 3.92e-10 I``
    (``S`` Sylvester-Hadamard) has residuals 0 and 9.8e-11, and only the
    trace gate refuses it.
    """

    matrix: np.ndarray
    trace_class: int = field(init=False)

    def __post_init__(self):
        m = as_square(self.matrix)
        _check_dim(m.shape[0])
        trace, tc, dist = _trace_class(m)
        check_operator(m.shape[0], hermiticity_kernel(m), involution_kernel(m),
                       trace, tc, dist)
        freeze_fields(self, matrix=m, trace_class=tc)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def multiplicities(self) -> tuple[int, int]:
        n_plus = (self.dim + self.trace_class) // 2
        return n_plus, self.dim - n_plus

    @classmethod
    def from_matrix(cls, m) -> "EigenschaftOp":
        """The constructor, ``EigenschaftOp(m)``, as a named call."""
        return cls(m)


def _first_orthogonality_failure(stack) -> tuple[int, int, float] | None:
    """First pair ``(i, j)``, ``i < j``, in row-major order with
    ``max_abs(P_i @ P_j) > TOL_INV``, and that product, or None, for members
    stacked as one ``(n, n, n)`` array.

    Each member is read as ``v_k v_k^dag + E_k``, with ``v_k`` its
    largest-diagonal column scaled to unit length.  With ``e_k = max|E_k|``,
    ``m_k = max|v_k|`` and ``G = V^dag V``, every entry of ``P_i P_j`` is at
    most ``|G_ij| m_i m_j + n (e_i m_j^2 + m_i^2 e_j + e_i e_j)``.  Only pairs
    whose bound exceeds ``TOL_INV / 2`` (the half absorbs rounding in ``G``
    and ``e``) get the exact product, so the verdict and the first failing
    pair are those of checking every pair, at O(n^3) for a sound frame.
    The members must already have passed the Hermitian and unit-trace
    gates, which make each largest diagonal entry positive.
    """
    n = stack.shape[0]
    diag = np.diagonal(stack, axis1=1, axis2=2).real
    pivots = np.argmax(diag, axis=1)
    members = np.arange(n)
    v = stack[members, :, pivots] / np.sqrt(diag[members, pivots])[:, None]
    e = np.abs(stack - v[:, :, None] * v.conj()[:, None, :]).max(axis=(1, 2))
    e = e[:, None]
    m = np.abs(v).max(axis=1)[:, None]
    mm = m * m
    bound = (np.abs(v.conj() @ v.T) * (m * m.T)
             + n * (e * mm.T + mm * e.T + e * e.T))
    for i, j in zip(*np.nonzero(np.triu(bound > TOL_INV / 2.0, k=1))):
        product = max_abs(stack[i] @ stack[j])
        if not product <= TOL_INV:
            return int(i), int(j), product
    return None


@dataclass(frozen=True, eq=False)
class ProjectorSet:
    """A complete orthogonal family of one-dimensional projectors.

    Validation enforces: each member Hermitian, idempotent, unit trace
    (rank one); mutual orthogonality; and completeness (the members sum to
    the identity), which together force exactly ``dim`` members.

    The members are stacked once into one ``(n, n, n)`` array, and the
    three member residuals, ``max_abs(P - P^dag)``, ``max_abs(P @ P - P)``
    and ``|tr P - 1|`` against ``TOL_HERM``, ``TOL_INV`` and ``TOL_SPECTRUM``,
    are batched reductions over it.  A refusal names the first failing
    member and, within it, the first failing gate in that order.

    Orthogonality (``max_abs(P_i @ P_j) <= TOL_INV`` for every pair) is
    screened through the unit frame read off the members, with one Gram
    product and an entrywise bound per pair; a pair is multiplied out only
    when its bound does not clear the gate.  A sound family thus costs
    O(n^3) for orthogonality instead of n(n-1)/2 products, and a failing
    one gets the exact product and the same pair as a pairwise check.
    Each refusal names its residual and bound (``check_residual``).

    ``projectors`` is that stack, read-only, each member bit for bit as
    given; iterating, indexing, ``len`` and ``sum`` read it member by
    member.
    """

    projectors: np.ndarray

    def __post_init__(self):
        if not np.iterable(self.projectors):
            raise ShapeError("projector set must be a sequence of matrices, "
                             f"got {self.projectors!r}")
        mats = [as_square(p) for p in self.projectors]
        if not mats:
            raise ShapeError("projector set must be non-empty")
        n = mats[0].shape[0]
        if any(p.shape[0] != n for p in mats):
            raise ShapeError("projectors must share one dimension")
        if len(mats) != n:
            raise DomainError(
                f"a complete rank-1 family in dimension {n} has exactly "
                f"{n} members, got {len(mats)}"
            )
        stack = np.stack(mats)
        residuals = np.array([
            np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2)),
            np.abs(stack @ stack - stack).max(axis=(1, 2)),
            np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0),
        ])
        bounds = (TOL_HERM, TOL_INV, TOL_SPECTRUM)
        # The first member that fails a gate; member 0 if none does.
        i = int(np.argmin((residuals <= np.array(bounds)[:, None]).all(axis=0)))
        for noun, residual, bound in zip(("Hermitian", "idempotent", "rank one"),
                                         residuals[:, i].tolist(), bounds):
            check_residual(residual, bound, f"projector {i} is not {noun}")
        failure = _first_orthogonality_failure(stack)
        if failure is not None:
            i, j, product = failure
            check_residual(product, TOL_INV,
                           f"projectors {i} and {j} are not orthogonal")
        check_residual(max_abs(stack.sum(axis=0) - np.eye(n)), TOL_INV,
                       "projectors do not resolve the identity")
        freeze_fields(self, projectors=stack)

    @property
    def dim(self) -> int:
        return int(self.projectors.shape[1])

    @classmethod
    def from_columns(cls, u) -> "ProjectorSet":
        """Rank-1 projectors onto the columns of a unitary matrix.

        Each member ``v v^dag`` is Hermitian to the bit, with a real
        diagonal.  numpy's complex product can round ``v_j conj(v_k)`` and
        the conjugate of ``v_k conj(v_j)`` apart in the last bit, so the
        lower triangle is copied from the conjugate of the upper one, and
        every diagonal imaginary part is set to ``+0.0``.
        """
        v = as_square(u).T
        p = v[:, :, None] * v.conj()[:, None, :]
        n = p.shape[1]
        lower = np.tri(n, k=-1, dtype=bool)
        np.copyto(p, p.conj().transpose(0, 2, 1), where=lower)
        p.reshape(n, n * n)[:, ::n + 1].imag = 0.0
        return cls(p)

    @classmethod
    def standard_basis(cls, dim: int) -> "ProjectorSet":
        return cls.from_columns(np.eye(as_dim(dim), dtype=complex))


class ProjectorDecomposition(NamedTuple):
    """Spectral resolution of an involution: projectors plus their signs."""

    projectors: ProjectorSet
    signs: tuple[int, ...]


@dataclass(frozen=True)
class H2Params:
    """Mixing angle and relative phase for the dimension-2 solution.

    ``gamma_angle`` is the mixing angle in radians (this is a different
    gamma from the dimension-3 off-diagonal amplitude); ``delta_phi`` is
    the phase of the upper off-diagonal entry.
    """

    gamma_angle: float
    delta_phi: float

    def __post_init__(self):
        gamma, dphi = as_scalars((self.gamma_angle, self.delta_phi), "angles")
        freeze_fields(self, gamma_angle=gamma, delta_phi=dphi)


class H2Elements(NamedTuple):
    """Measurable matrix elements of a dimension-2 involution: the diagonal
    ``alpha`` (fixing the spectrum side) and the off-diagonal magnitude
    ``beta`` with its phase (fixing the dispersion)."""

    alpha: float
    beta: float
    delta_phi: float


def build_h2(params: H2Params) -> EigenschaftOp:
    """Traceless dimension-2 involution from mixing angle and phase.

    The matrix is ``[[cos g, e^{i dphi} sin g], [e^{-i dphi} sin g, -cos g]]``;
    it is Hermitian and involutive identically in the parameters.
    """
    c = np.cos(params.gamma_angle)
    off = np.sin(params.gamma_angle) * np.exp(1j * params.delta_phi)
    m = np.array([[c, off], [np.conj(off), -c]], dtype=complex)
    return EigenschaftOp.from_matrix(m)


_HADAMARD = build_h2(H2Params(gamma_angle=np.pi / 4.0, delta_phi=0.0))


def hadamard() -> EigenschaftOp:
    """The symmetric traceless involution ``[[1, 1], [1, -1]] / sqrt(2)``,
    i.e. the lossless 50/50 beam-splitter matrix.

    The operator is built and gated once, when this module loads, and every
    call returns it; it is frozen and its matrix is read-only.
    """
    return _HADAMARD


def h2_elements(op: EigenschaftOp) -> H2Elements:
    """Read back ``(alpha, beta, delta_phi)`` from a dimension-2 operator.

    ``beta`` is reported nonnegative; when it vanishes the phase is
    conventionally zero.
    """
    if op.dim != 2:
        raise ShapeError(f"expected a dimension-2 operator, got dim {op.dim}")
    m = op.matrix
    alpha = float(m[0, 0].real)
    beta = float(abs(m[0, 1]))
    delta_phi = float(np.angle(m[0, 1])) if beta > PHASE_EPS else 0.0
    return H2Elements(alpha=alpha, beta=beta, delta_phi=delta_phi)


@dataclass(frozen=True)
class DiagSpec:
    """Prescribed diagonal for the closed-form dimension-3/4 constructions.

    ``alphas`` are the diagonal entries, ``trace_sign`` selects the branch
    (trace ``+-1`` in dimension 3, ``+-2`` in dimension 4), and ``phases``
    are the free relative phases of the first row: ``(dphi_12, dphi_13)``
    for dimension 3 and ``(dphi_12, dphi_13, dphi_14)`` for dimension 4.
    The remaining phases are fixed by closure.
    """

    dim: int
    alphas: tuple[float, ...]
    trace_sign: int
    phases: tuple[float, ...]

    def __post_init__(self):
        dim = as_int(self.dim, "dim", ConstructionError)
        if dim not in (3, 4):
            raise ConstructionError(
                f"closed-form diagonal construction covers dims 3 and 4, got {dim}")
        trace_sign = as_int(self.trace_sign, "trace_sign", ConstructionError)
        if trace_sign not in (1, -1):
            raise ConstructionError("trace_sign must be +1 or -1")
        alphas = as_real(self.alphas, "alphas", ConstructionError)
        if alphas.shape != (dim,):
            raise ConstructionError(f"need {dim} diagonal entries, "
                                    f"got {len(np.atleast_1d(alphas))}")
        alphas = tuple(alphas.tolist())
        for i, a in enumerate(alphas):
            if not abs(a) <= 1.0:
                raise ConstructionError(f"|alpha_{i + 1}| <= 1 violated (got {a!r})")
        target = float(trace_sign * (dim - 2))
        total = sum(alphas)
        if abs(total - target) > DIAG_SUM_TOL:
            raise ConstructionError(
                f"sum(alphas) must equal trace_sign * {dim - 2} = {target:g} "
                f"(got {total!r})")
        phases = as_real(self.phases, "phases", ConstructionError)
        if phases.shape != (dim - 1,):
            raise ConstructionError(f"dimension {dim} takes {dim - 1} free "
                                    f"phases, got {len(np.atleast_1d(phases))}")
        freeze_fields(self, alphas=alphas, phases=tuple(phases.tolist()),
                      trace_sign=trace_sign, dim=dim)


def build_from_diag(spec: DiagSpec) -> EigenschaftOp:
    """Build the rank-one-deficiency involution with the prescribed diagonal.

    With ``s = trace_sign`` the operator is ``s * (I - 2 P)`` where ``P``
    projects onto the unit vector with ``|c_i|^2 = (1 - s * alpha_i) / 2``
    and phases chosen so the first-row off-diagonals carry exactly the
    requested free phases.  Every off-diagonal magnitude then satisfies
    ``|H_ij|^2 = (1 - s*alpha_i) * (1 - s*alpha_j)`` and the dependent
    phases are differences of the free ones.
    """
    s = float(spec.trace_sign)
    alphas = np.asarray(spec.alphas, dtype=float)
    # |alpha_i| <= 1 makes every radicand exactly nonnegative in floats.
    r = np.sqrt((1.0 - s * alphas) / 2.0)
    thetas = np.zeros(spec.dim)
    thetas[1:] = [-p for p in spec.phases]
    c = r * np.exp(1j * thetas)
    c = c / np.linalg.norm(c)
    h = s * (np.eye(spec.dim, dtype=complex) - 2.0 * np.outer(c, c.conj()))
    return EigenschaftOp.from_matrix(h)


def from_projector_flip(ps: ProjectorSet, signs) -> EigenschaftOp:
    """Signed sum ``sum_i signs_i * P_i`` over a complete projector family.

    Any assignment of ``+-1`` signs yields a Hermitian involution whose
    trace class is the sum of the signs.
    """
    if not np.iterable(signs):
        raise DomainError(f"signs must be a sequence of +1 and -1, got {signs!r}")
    signs = list(signs)
    if len(signs) != ps.dim:
        raise DomainError(
            f"need {ps.dim} signs for dimension {ps.dim}, got {len(signs)}"
        )
    if any(as_int(x, "signs") not in (1, -1) for x in signs):
        raise DomainError("signs must be +1 or -1")
    h = sum(int(s) * p for s, p in zip(signs, ps.projectors))
    return EigenschaftOp.from_matrix(h)


def to_projectors(op: EigenschaftOp) -> ProjectorDecomposition:
    """Spectral resolution of an involution into rank-1 projectors.

    ``H`` is diagonalised by :func:`hermitian_eig`, and each eigenvector
    gives one projector.  The signs, ascending, are read off the trace
    class, ``(-1,) * n_minus + (1,) * n_plus``, with no eigenvalue check.
    With ``h`` the symmetrised matrix and ``a = (m - m^dag)/2``,
    ``Herm(m^2 - I) = h^2 - I + a^2``, so
    ``max|h^2 - I| <= TOL_INV + n (TOL_HERM/2)^2`` and
    ``|lambda^2 - 1| <= ||h^2 - I||_2 <= n max|h^2 - I|``: at ``MAX_DIM``
    every eigenvalue is within 3.2e-9 of +-1, and the trace within 2e-7 of
    their ``n_plus - n_minus``, where rounding to it tolerates 1.

    Inside each eigenspace the basis is LAPACK's: deterministic but not
    canonical; only sign-weighted sums (which reproduce the operator) are
    canonical.  Each projector is Hermitian to the bit, with a real
    diagonal (:meth:`ProjectorSet.from_columns`).
    """
    spectrum = hermitian_eig(op.matrix)
    signs = (-1,) * op.multiplicities[1] + (1,) * op.multiplicities[0]
    projectors = ProjectorSet.from_columns(spectrum.eigenvectors)
    return ProjectorDecomposition(projectors, signs)


def complement_family(ps: ProjectorSet, kind: str = "flip") -> list[EigenschaftOp]:
    """Canonical involution families over a projector set.

    ``kind="flip"`` gives the ``dim`` operators ``I - 2 P_i`` (one flipped
    sign each; trace class ``dim - 2``).  ``kind="traceless"`` gives the
    dimension-4 triple with balanced signs ``(+,-,+,-)``, ``(+,+,-,-)``,
    ``(+,-,-,+)`` and trace class 0.
    """
    eye = np.eye(ps.dim, dtype=complex)
    if kind == "flip":
        return [
            EigenschaftOp.from_matrix(eye - 2.0 * p) for p in ps.projectors
        ]
    if kind == "traceless":
        if ps.dim != 4:
            raise DomainError(
                "the balanced traceless family exists only in dimension 4"
            )
        sign_rows = [(1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)]
        return [from_projector_flip(ps, row) for row in sign_rows]
    raise DomainError(f"unknown family kind {kind!r}")


def build_kron_family(h_a: EigenschaftOp, h_b: EigenschaftOp) -> tuple[
        EigenschaftOp, EigenschaftOp, EigenschaftOp]:
    """The commuting traceless dimension-4 triple built from two traceless
    dimension-2 involutions: ``(I (x) B, A (x) I, A (x) B)``."""
    for name, op in (("first", h_a), ("second", h_b)):
        if op.dim != 2:
            raise ShapeError(f"{name} factor must have dimension 2")
        if op.trace_class != 0:
            raise DomainError(
                f"{name} factor must be traceless (trace class 0), "
                f"got {op.trace_class}"
            )
    eye = np.eye(2, dtype=complex)
    return (
        EigenschaftOp.from_matrix(np.kron(eye, h_b.matrix)),
        EigenschaftOp.from_matrix(np.kron(h_a.matrix, eye)),
        EigenschaftOp.from_matrix(np.kron(h_a.matrix, h_b.matrix)),
    )


class ProductExpansion(NamedTuple):
    """Least-squares expansion of a pairwise product in span{I, family}.

    ``coefficients[0]`` multiplies the identity, ``coefficients[1:]`` the
    family members in order.  When the family is linearly dependent (for
    instance when it sums to a multiple of the identity) the expansion is
    the minimum-norm representative of infinitely many.
    """

    coefficients: np.ndarray
    residual: float
    expressible: bool


@dataclass(eq=False)
class AlgebraTable:
    """Pairwise products and commutators of an involution family."""

    dim: int
    products: dict[tuple[int, int], ProductExpansion]
    commutator_norms: dict[tuple[int, int], float]

    @property
    def max_commutator(self) -> float:
        return max(self.commutator_norms.values(), default=0.0)


def algebra_table(family: list[EigenschaftOp]) -> AlgebraTable:
    """Express every pairwise product in span{identity, family members}.

    Each expansion is the minimum-norm real least-squares solution over the
    real and imaginary parts of the entries.  The design is factored once,
    as a pseudo-inverse with ``lstsq``'s singular-value cutoff; row ``i``
    then expands all products ``H_i H_j`` with one matrix product, and its
    commutators (``j > i``) reuse them.  A product counts as expressible
    when the max-norm residual of its reconstruction is at most
    ``EXPRESSIBLE_TOL``.
    """
    if not family:
        raise DomainError("family must be non-empty")
    dim = family[0].dim
    if any(op.dim != dim for op in family):
        raise ShapeError("family members must share one dimension")
    stack = np.stack([op.matrix for op in family])
    basis = np.concatenate([np.eye(dim, dtype=complex)[None], stack])
    # Each (n, n) complex matrix is read as one real row of 2 n^2 entries.
    design = basis.reshape(len(basis), -1).view(float).T
    solve = np.linalg.pinv(design, rcond=np.finfo(float).eps * max(design.shape))
    products: dict[tuple[int, int], ProductExpansion] = {}
    commutators: dict[tuple[int, int], float] = {}
    for i, hi in enumerate(stack):
        row = hi @ stack
        coeffs = row.reshape(len(row), -1).view(float) @ solve.T
        recon = np.tensordot(coeffs, basis, axes=1)
        residuals = np.abs(row - recon).max(axis=(1, 2)).tolist()
        for j, (c, r) in enumerate(zip(coeffs, residuals)):
            products[(i, j)] = ProductExpansion(c, r, r <= EXPRESSIBLE_TOL)
        swapped = np.abs(row[i + 1:] - stack[i + 1:] @ hi).max(axis=(1, 2))
        commutators.update(
            ((i, j), d) for j, d in enumerate(swapped.tolist(), start=i + 1))
    return AlgebraTable(dim=dim, products=products, commutator_norms=commutators)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Residuals quantifying how far a matrix is from a Hermitian involution.

    ``relation_residuals`` carries the closed-form structural constraints
    (off-diagonal magnitudes determined by the diagonal, and phase
    closures) for dimension 2 always and for dimensions 3/4 when the
    nearest trace class selects a rank-one-deficiency branch; it is empty
    otherwise.  ``trace_class_suspect`` is the operator gate's trace
    verdict, ``trace_class_distance > TOL_SPECTRUM``.  All reporting, no
    gating: inspect the numbers and decide.
    """

    dim: int
    hermiticity_residual: float
    unitarity_residual: float
    involution_residual: float
    trace: complex
    trace_class: int
    trace_class_distance: float
    trace_class_suspect: bool
    relation_residuals: dict[str, float]


def _closure_residual(m: np.ndarray, s: float, i: int, j: int) -> float | None:
    """|wrap(phi_ij - (phi_0j - phi_0i))|, the pair ``(i, j)`` off row 0
    closing through row 0, with signed-amplitude phases
    ``phi_kl = arg(-s * m_kl)``; None when any amplitude is too small."""
    entries = [m[i, j], m[0, j], m[0, i]]
    if any(abs(e) <= PHASE_EPS for e in entries):
        return None
    phi = [float(np.angle(-s * e)) for e in entries]
    return abs(wrap_phase(phi[0] - (phi[1] - phi[2])))


def validate(matrix) -> ValidationReport:
    """Residual report for an arbitrary square matrix.

    Accepts a plain array or an :class:`EigenschaftOp`.  Never raises on
    a matrix within ``MAX_MAGNITUDE``; every deviation shows up as a
    finite residual.
    """
    m = as_square(matrix.matrix if isinstance(matrix, EigenschaftOp) else matrix)
    n = m.shape[0]
    trace, tc, dist = _trace_class(m)
    relations: dict[str, float] = {}

    diag = np.real(np.diag(m))
    if n == 2:
        beta = abs(m[0, 1])
        relations["balance"] = float(abs(beta * (diag[0] + diag[1])))
        relations["unit_norm_1"] = float(abs(diag[0] ** 2 + beta**2 - 1.0))
        relations["unit_norm_2"] = float(abs(diag[1] ** 2 + beta**2 - 1.0))
    elif n in (3, 4) and abs(tc) == n - 2:
        s = 1.0 if tc > 0 else -1.0
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for i, j in pairs:
            predicted = (1.0 - s * diag[i]) * (1.0 - s * diag[j])
            relations[f"mag_{i + 1}{j + 1}"] = float(
                abs(abs(m[i, j]) ** 2 - predicted)
            )
        for i, j in pairs[n - 1:]:  # the pairs off row 0
            res = _closure_residual(m, s, i, j)
            if res is not None:
                relations[f"closure_{i + 1}{j + 1}"] = float(res)

    return ValidationReport(
        dim=n,
        hermiticity_residual=hermiticity_kernel(m),
        unitarity_residual=unitarity_kernel(m),
        involution_residual=involution_kernel(m),
        trace=trace,
        trace_class=tc,
        trace_class_distance=float(dist),
        trace_class_suspect=bool(dist > TOL_SPECTRUM),
        relation_residuals=relations,
    )
