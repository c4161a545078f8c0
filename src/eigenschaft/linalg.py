"""Dense complex matrix kernel.

Matrix coercion, max-norm residuals (Hermiticity, unitarity, involution)
and the package's one eigensolver for Hermitian matrices.  Everything in
this module is a pure function of ``numpy`` arrays; matrices are dense,
row-major, and small (the package is designed for dimensions up to 64).

``hermitian_eig`` is LAPACK's backward-stable Hermitian solver
(``numpy.linalg.eigh``, ``zheevd``) between the package's own gates: the
input must be finite and Hermitian within ``TOL_HERM``, and the result must
pass an orthonormality and a reconstruction check, so a caller never gets
an unchecked spectrum.  It serves the positivity gate of
``states.DensityMatrix`` and the spectral resolution in
``operators.to_projectors``.
"""

from __future__ import annotations

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


def _quiet_overflow():
    """Silence numpy's overflow and invalid-value warnings.

    Finite entries near the float limit can overflow in the residual and
    symmetrisation arithmetic below.  The ``inf`` or ``nan`` that results
    fails the caller's tolerance gate, so numpy's warning would only be
    noise on stderr ahead of the gate's own message.
    """
    return np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow()
def hermiticity_residual(a) -> float:
    """``max_abs(a - a^dag)``; zero iff ``a`` is Hermitian."""
    m = as_square(a)
    return max_abs(m - m.conj().T)


@_quiet_overflow()
def unitarity_residual(a) -> float:
    """``max_abs(a @ a^dag - I)``; zero iff ``a`` is unitary."""
    m = as_square(a)
    return max_abs(m @ m.conj().T - np.eye(m.shape[0]))


@_quiet_overflow()
def involution_residual(a) -> float:
    """``max_abs(a @ a - I)``; zero iff ``a`` squares to the identity."""
    m = as_square(a)
    return max_abs(m @ m - np.eye(m.shape[0]))


@dataclass(eq=False)
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


def hermitian_eig(a) -> Spectrum:
    """Eigendecompose a Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

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
        If LAPACK reports no convergence, or the result fails the
        orthonormality or reconstruction check (which a non-finite result,
        say from entries near the float overflow limit, always does).
    """
    m = as_square(a)
    herm = hermiticity_residual(m)
    if herm > TOL_HERM:
        raise DomainError(
            f"matrix is not Hermitian within {TOL_HERM:g} (residual {herm:.3e})"
        )
    with _quiet_overflow():
        h = (m + m.conj().T) / 2.0
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc

    ortho = max_abs(eigenvectors.conj().T @ eigenvectors - np.eye(m.shape[0]))
    if not ortho <= TOL_ORTHO:
        raise ConvergenceError(
            f"eigenvector orthonormality residual {ortho:.3e} exceeds tolerance"
        )
    recon = max_abs(m - (eigenvectors * eigenvalues) @ eigenvectors.conj().T)
    if not recon <= TOL_RECON * max(1.0, max_abs(h)):
        raise ConvergenceError(
            f"spectral reconstruction residual {recon:.3e} exceeds tolerance"
        )
    return Spectrum(eigenvalues, eigenvectors)
