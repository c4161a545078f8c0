"""Dense complex matrix kernel.

Matrix coercion, max-norm residuals (Hermiticity, unitarity, involution)
and a cyclic Jacobi eigensolver for Hermitian matrices.  Everything in this
module is a pure function of ``numpy`` arrays; matrices are dense,
row-major, and small (the package is designed for dimensions up to 64).

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

import numpy as np

from .errors import ConvergenceError, DomainError, ShapeError

#: Gate tolerances for Hermiticity, eigenvector orthonormality, and
#: spectral reconstruction.
TOL_HERM = 1e-10
TOL_ORTHO = 1e-10
TOL_RECON = 1e-10
#: Default gate for involution residuals (``H @ H == I``).
TOL_INV = 1e-10

_JACOBI_SWEEP_CAP = 100
_JACOBI_OFF_TOL = 1e-13


def as_square(a) -> np.ndarray:
    """Coerce ``a`` to a non-empty square complex matrix with finite
    entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise ShapeError("matrix must be non-empty")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def freeze_fields(obj, **fields) -> None:
    """Set fields of a frozen dataclass, from its ``__post_init__``.

    An array value is stored as a read-only copy, and so is each array in a
    tuple value, so the caller's arrays stay writable.  Other values are
    stored as given.
    """
    for name, value in fields.items():
        if isinstance(value, tuple):
            value = tuple(map(_read_only_copy, value))
        else:
            value = _read_only_copy(value)
        object.__setattr__(obj, name, value)


def _read_only_copy(value):
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.setflags(write=False)
    return value


def max_abs(a) -> float:
    """Entrywise max-norm ``max_ij |a_ij|``, the residual norm used
    throughout the package."""
    return float(np.max(np.abs(np.asarray(a))))


def hermiticity_residual(a) -> float:
    """``max_abs(a - a^dag)``; zero iff ``a`` is Hermitian."""
    m = as_square(a)
    return max_abs(m - m.conj().T)


def unitarity_residual(a) -> float:
    """``max_abs(a @ a^dag - I)``; zero iff ``a`` is unitary."""
    m = as_square(a)
    return max_abs(m @ m.conj().T - np.eye(m.shape[0]))


def involution_residual(a) -> float:
    """``max_abs(a @ a - I)``; zero iff ``a`` squares to the identity."""
    m = as_square(a)
    return max_abs(m @ m - np.eye(m.shape[0]))


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


def hermitian_eig(a) -> Spectrum:
    """Eigendecompose a Hermitian matrix by cyclic Jacobi rotations.

    Parameters
    ----------
    a : array_like
        Square matrix with ``hermiticity_residual(a) <= TOL_HERM``.

    Returns
    -------
    Spectrum
        Real ascending eigenvalues and orthonormal eigenvectors satisfying
        ``a @ V == V @ diag(w)`` within ``TOL_RECON`` (scaled by the matrix
        magnitude for inputs far from unit scale).

    Raises
    ------
    DomainError
        If the input is not Hermitian within ``TOL_HERM``.
    ConvergenceError
        If the sweep cap is exhausted before the off-diagonal mass falls
        below the threshold (does not occur for finite Hermitian input).
    """
    m = as_square(a)
    n = m.shape[0]
    if hermiticity_residual(m) > TOL_HERM:
        raise DomainError(
            f"matrix is not Hermitian within {TOL_HERM:g} "
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
