"""Dense complex matrix kernel.

Products, adjoints, Kronecker products, involution checks, and a cyclic
Jacobi eigensolver for Hermitian matrices.  Everything in this module is a
pure function of ``numpy`` arrays; matrices are dense, row-major, and small
(the package is designed for dimensions up to 64).

The eigensolver is deliberately self-contained: it applies complex Jacobi
rotations that annihilate one off-diagonal pair at a time, sweeping
cyclically until the largest off-diagonal magnitude falls below an absolute
threshold.  ``numpy.linalg.eigh`` is used nowhere in the library, which lets
the test suite cross-check the two routes against each other.

In the library, ``hermitian_eig`` does real work only for the positivity
gate of ``states.DensityMatrix``.  ``operators.to_projectors`` hands it the
Rayleigh quotient of a closed-form eigenbasis, which for an involution
exact to rounding is already diagonal below the rotation threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, ShapeError

#: Gate tolerances for Hermiticity, eigenvector orthonormality, and
#: spectral reconstruction.  Overridable per call where it matters.
TOL_HERM = 1e-10
TOL_ORTHO = 1e-10
TOL_RECON = 1e-10
#: Default gate for involution residuals (``H @ H == I``).
TOL_INV = 1e-10

_JACOBI_SWEEP_CAP = 100
_JACOBI_OFF_TOL = 1e-13


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-d complex array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise ShapeError("matrix must be non-empty")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return m


def as_square(a) -> np.ndarray:
    """Like :func:`as_matrix` but additionally requires a square shape."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def max_abs(a) -> float:
    """Entrywise max-norm ``max_ij |a_ij|``, the residual norm used
    throughout the package."""
    return float(np.max(np.abs(np.asarray(a))))


def mat_mul(a, b) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape[1] != mb.shape[0]:
        raise ShapeError(
            f"cannot multiply {ma.shape} by {mb.shape}: inner dimensions differ"
        )
    return ma @ mb


def adjoint(a) -> np.ndarray:
    """Conjugate transpose.  Involutive: ``adjoint(adjoint(a)) == a``."""
    return as_matrix(a).conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product.  For square factors the trace is multiplicative:
    ``trace(kron(a, b)) == trace(a) * trace(b)``."""
    return np.kron(as_matrix(a), as_matrix(b))


def hermiticity_residual(a) -> float:
    """``max_abs(a - adjoint(a))``; zero iff ``a`` is Hermitian."""
    m = as_square(a)
    return max_abs(m - m.conj().T)


def unitarity_residual(a) -> float:
    """``max_abs(a @ adjoint(a) - I)``; zero iff ``a`` is unitary."""
    m = as_square(a)
    return max_abs(m @ m.conj().T - np.eye(m.shape[0]))


def involution_residual(a) -> float:
    """``max_abs(a @ a - I)``; zero iff ``a`` squares to the identity."""
    m = as_square(a)
    return max_abs(m @ m - np.eye(m.shape[0]))


class InvolutionReport(NamedTuple):
    """Outcome of an involution check plus the residual that decided it."""

    ok: bool
    residual: float


def is_involution(a, tol: float = TOL_INV) -> InvolutionReport:
    """Check ``a @ a == I`` within ``tol`` (max-norm residual)."""
    residual = involution_residual(a)
    return InvolutionReport(residual <= tol, residual)


@dataclass
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; the columns of ``eigenvectors``
    are the matching orthonormal eigenvectors.  Within a degenerate cluster
    the basis is arbitrary, so downstream code must only rely on the spanned
    eigenspaces, never on individual degenerate columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.shape[0])


def _jacobi_rotation(app: float, aqq: float, apq: complex) -> np.ndarray:
    """2x2 unitary that annihilates the (p, q) entry of a Hermitian matrix
    with diagonal ``(app, aqq)`` and off-diagonal ``apq``."""
    beta = abs(apq)
    phase = apq / beta
    tau = (aqq - app) / (2.0 * beta)
    t = 1.0 / (abs(tau) + math.hypot(1.0, tau))
    if tau < 0.0:
        t = -t
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    return np.array([[phase * c, phase * s], [-s, c]], dtype=complex)


def hermitian_eig(a, tol_herm: float = TOL_HERM) -> Spectrum:
    """Eigendecompose a Hermitian matrix by cyclic Jacobi rotations.

    Parameters
    ----------
    a : array_like
        Square matrix with ``hermiticity_residual(a) <= tol_herm``.
    tol_herm : float
        Gate on the Hermiticity residual of the input.

    Returns
    -------
    Spectrum
        Real ascending eigenvalues and orthonormal eigenvectors satisfying
        ``a @ V == V @ diag(w)`` within ``TOL_RECON`` (scaled by the matrix
        magnitude for inputs far from unit scale).

    Raises
    ------
    DomainError
        If the input is not Hermitian within ``tol_herm``.
    ConvergenceError
        If the sweep cap is exhausted before the off-diagonal mass falls
        below the threshold (does not occur for finite Hermitian input).
    """
    m = as_square(a)
    n = m.shape[0]
    if hermiticity_residual(m) > tol_herm:
        raise DomainError(
            f"matrix is not Hermitian within {tol_herm:g} "
            f"(residual {hermiticity_residual(m):.3e})"
        )
    # Exact Hermitian symmetrization so rotations preserve the structure.
    h = (m + m.conj().T) / 2.0
    scale = max(1.0, max_abs(h))
    h = h / scale
    v = np.eye(n, dtype=complex)

    if n == 1:
        return Spectrum(np.array([h[0, 0].real * scale]), v)

    converged = False
    for _ in range(_JACOBI_SWEEP_CAP):
        off = np.abs(h - np.diag(np.diag(h)))
        if off.max() < _JACOBI_OFF_TOL:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(h[p, q]) < _JACOBI_OFF_TOL:
                    continue
                u = _jacobi_rotation(h[p, p].real, h[q, q].real, h[p, q])
                h[:, [p, q]] = h[:, [p, q]] @ u
                h[[p, q], :] = u.conj().T @ h[[p, q], :]
                # Zero by construction; enforce exactly to stop drift.
                h[p, q] = 0.0
                h[q, p] = 0.0
                h[p, p] = h[p, p].real
                h[q, q] = h[q, q].real
                v[:, [p, q]] = v[:, [p, q]] @ u
    if not converged:
        off = np.abs(h - np.diag(np.diag(h)))
        if off.max() >= _JACOBI_OFF_TOL:
            raise ConvergenceError(
                f"Jacobi sweep cap ({_JACOBI_SWEEP_CAP}) exhausted with "
                f"off-diagonal magnitude {off.max():.3e}"
            )

    eigenvalues = np.real(np.diag(h)) * scale
    order = np.argsort(eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    eigenvectors = v[:, order]

    ortho = max_abs(eigenvectors.conj().T @ eigenvectors - np.eye(n))
    if ortho > TOL_ORTHO:
        raise ConvergenceError(
            f"eigenvector orthonormality residual {ortho:.3e} exceeds tolerance"
        )
    recon = max_abs(m - (eigenvectors * eigenvalues) @ eigenvectors.conj().T)
    if recon > TOL_RECON * max(1.0, scale):
        raise ConvergenceError(
            f"spectral reconstruction residual {recon:.3e} exceeds tolerance"
        )
    return Spectrum(eigenvalues, eigenvectors)
