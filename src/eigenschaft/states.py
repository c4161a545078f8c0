"""State vectors, density matrices, and the mean/dispersion split.

A Hermitian operator applied to a unit vector always splits into a component
along the vector (the mean) and an orthogonal remainder whose squared length
is the dispersion.  This module implements that decomposition together with
the density-matrix diagnostics that expose when a "diagonal truncation" of a
pure state stops behaving like a quantum state: it keeps unit trace, but its
purity drops below one and its trace dispersion goes negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import (
    as_dim,
    as_hermitian,
    as_int,
    as_numeric,
    as_scalars,
    as_square,
    freeze_fields,
    hermitian_eig,
)

TOL_NORM = 1e-10
#: A dispersion at or below this times ``max(1, |a @ psi|^2)`` marks an
#: eigenvector: ``decompose_state`` gives it no residual state.
DISPERSION_EPS = 1e-12
#: Eigenvalue floor for positive semidefiniteness of density matrices.
PSD_FLOOR = -1e-10
#: ``classify`` calls a state pure when its purity lies this close to 1.
PURITY_TOL = 1e-10
#: ``superpose`` refuses a combination whose norm is at most this times
#: ``|c1| + |c2|``, its largest possible norm.
CANCEL_EPS = 1e-12


def _as_amplitudes(values) -> np.ndarray:
    amp = as_numeric(values, "amplitudes").astype(complex, copy=False)
    if amp.ndim != 1 or amp.size == 0:
        raise ShapeError("amplitudes must form a non-empty 1-d sequence")
    return amp


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = _as_amplitudes(self.amplitudes)
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > TOL_NORM:
            raise DomainError(
                f"state vector is not normalized: |psi| = {norm!r}"
            )
        freeze_fields(self, amplitudes=amp)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.shape[0])

    @classmethod
    def normalized(cls, values) -> "StateVector":
        """Construct from an arbitrary nonzero vector, normalizing it.

        The vector is first scaled by its largest modulus, so a nonzero
        vector of any magnitude normalizes; only the zero vector is refused.
        """
        amp = _as_amplitudes(values)
        scale = float(np.abs(amp).max())
        if scale == 0.0:
            raise DomainError("cannot normalize the zero vector")
        # Part by part: complex division by a subnormal scale overflows.
        amp = amp.real / scale + 1j * (amp.imag / scale)
        return cls(amp / np.linalg.norm(amp))

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "StateVector":
        """The ``index``-th standard basis vector in ``dim`` dimensions."""
        dim = as_dim(dim)
        index = as_int(index, "basis index")
        if not 0 <= index < dim:
            raise ShapeError(f"basis index {index} out of range for dim {dim}")
        amp = np.zeros(dim, dtype=complex)
        amp[index] = 1.0
        return cls(amp)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator, refused with
    ``DomainError`` in that order; ``hermitian_eig`` is the Hermitian gate."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_square(self.matrix)
        lo = float(hermitian_eig(m).eigenvalues[0])
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TOL_NORM:
            raise DomainError(f"density matrix must have unit trace, got {tr!r}")
        if lo < PSD_FLOOR:
            raise DomainError(
                f"density matrix must be positive semidefinite "
                f"(smallest eigenvalue {lo:.3e})"
            )
        freeze_fields(self, matrix=m)


@dataclass(frozen=True)
class Decomposition:
    """Mean/dispersion split of an operator applied to a state.

    ``residual_state`` is the normalized orthogonal remainder; it is absent
    when the state is an eigenvector (dispersion at the zero cut).
    """

    mean: float
    dispersion: float
    residual_state: StateVector | None


def superpose(c1: complex, s1: StateVector, c2: complex, s2: StateVector) -> StateVector:
    """Normalized linear combination ``c1*s1 + c2*s2``.

    Raises ``DomainError`` when the two terms cancel: the combination's
    norm is at most ``CANCEL_EPS * (|c1| + |c2|)``, its largest possible
    norm.
    """
    if s1.dim != s2.dim:
        raise ShapeError(f"state dimensions differ: {s1.dim} vs {s2.dim}")
    c1, c2 = as_scalars((c1, c2), "coefficients", as_numeric)
    combo = c1 * s1.amplitudes + c2 * s2.amplitudes
    norm = float(np.linalg.norm(combo))
    if norm <= CANCEL_EPS * (abs(c1) + abs(c2)):
        raise DomainError("degenerate superposition: the components cancel")
    return StateVector(combo / norm)


def decompose_state(a, psi1: StateVector) -> Decomposition:
    """Split ``a @ psi1`` into ``mean * psi1 + b * psi2`` with ``psi2``
    orthonormal to ``psi1``.

    ``mean`` is the expectation value of the Hermitian operator ``a`` in
    ``psi1`` and ``b = sqrt(dispersion)`` is chosen real and nonnegative,
    any phase being absorbed into ``psi2``.  The dispersion is the squared
    length of the remainder ``a @ psi1 - mean * psi1`` with ``psi1``
    projected out, so it never cancels and is never negative; at or below
    ``DISPERSION_EPS * max(1, |a @ psi1|^2)`` the state is an eigenvector
    and ``psi2`` is absent.
    """
    m = as_hermitian(a)
    if m.shape[0] != psi1.dim:
        raise ShapeError(
            f"operator dim {m.shape[0]} does not match state dim {psi1.dim}"
        )
    psi = psi1.amplitudes
    image = m @ psi
    mean = float(np.vdot(psi, image).real)
    remainder = image - mean * psi
    remainder -= np.vdot(psi, remainder) * psi
    dispersion = float(np.vdot(remainder, remainder).real)
    cut = DISPERSION_EPS * max(1.0, float(np.vdot(image, image).real))
    psi2 = StateVector(remainder / np.sqrt(dispersion)) if dispersion > cut else None
    return Decomposition(mean=mean, dispersion=dispersion, residual_state=psi2)


def outer_product(psi: StateVector) -> DensityMatrix:
    """Pure-state density matrix ``psi psi^+`` (a rank-1 projector)."""
    amp = psi.amplitudes
    return DensityMatrix(np.outer(amp, amp.conj()))


def diagonal_truncate(rho: DensityMatrix) -> DensityMatrix:
    """Drop all off-diagonal entries, keeping the (unit) trace.

    The result is a statistical mixture of the basis populations; it is
    idempotent as an operation but generally not idempotent as a matrix.
    """
    return DensityMatrix(np.diag(np.diag(rho.matrix)))


@dataclass(frozen=True)
class Classification:
    """Purity diagnostics of a density matrix.

    ``rho_dispersion`` is ``trace(rho^2) - trace(rho)^2``.  It is zero for
    pure states and strictly negative for mixtures; the sign is reported
    rather than clamped because the negativity is the interesting part.
    """

    kind: Literal["pure", "mixture"]
    purity: float
    rho_dispersion: float


def classify(rho: DensityMatrix | np.ndarray) -> Classification:
    """Classify a density matrix as pure or mixed via its purity."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    m = rho.matrix
    purity = float(np.trace(m @ m).real)
    tr = float(np.trace(m).real)
    dispersion = purity - tr * tr
    kind = "pure" if abs(purity - 1.0) <= PURITY_TOL else "mixture"
    return Classification(kind=kind, purity=purity, rho_dispersion=dispersion)
