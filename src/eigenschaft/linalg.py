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

Every number the package takes is finite and at most ``MAX_MAGNITUDE`` in
magnitude; ``check_magnitude`` is that one rule, applied where input enters.
A sum of up to ``1e100`` products of two such numbers stays finite, so the
arithmetic after the check cannot overflow.
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
#: Largest magnitude of any number the package takes.  The numbers it
#: serves are of order one; an angle above this carries no phase, since the
#: float spacing there far exceeds 2 pi.
MAX_MAGNITUDE = 1e100


def check_magnitude(a, noun: str, error=DomainError, real: bool = False) -> None:
    """Raise ``error`` unless every entry of ``a`` is finite and at most
    ``MAX_MAGNITUDE`` in (complex) magnitude; the message names ``noun``.

    A door that takes real numbers passes ``real=True`` and calls this
    before it converts ``a`` to float, which would drop an imaginary part:
    ``a`` of a complex type is then refused first, as ``{noun} must be
    real``, whatever its imaginary part.
    """
    a = np.asarray(a)
    if real and np.iscomplexobj(a):
        raise error(f"{noun} must be real")
    if not np.abs(a).max(initial=0.0) <= MAX_MAGNITUDE:
        raise error(
            f"{noun} must be finite and at most {MAX_MAGNITUDE:g} in magnitude"
        )


def as_square(a) -> np.ndarray:
    """Coerce ``a`` to a non-empty square complex matrix with entries
    within ``MAX_MAGNITUDE``."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise ShapeError("matrix must be non-empty")
    check_magnitude(m, "matrix entries")
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_hermitian(a) -> np.ndarray:
    """``as_square(a)``, refused with ``DomainError`` unless its
    Hermiticity residual is within ``TOL_HERM``."""
    m = as_square(a)
    herm = hermiticity_residual(m)
    if herm > TOL_HERM:
        raise DomainError(
            f"not Hermitian: residual {herm:.3e} exceeds {TOL_HERM:g}"
        )
    return m


def freeze_fields(obj, **fields) -> None:
    """Set fields of a frozen dataclass, from its ``__post_init__``.

    An array value is stored as a read-only copy, so the caller's arrays
    stay writable.  Other values are stored as given.
    """
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = value.copy()
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def max_abs(a) -> float:
    """Entrywise max-norm ``max_ij |a_ij|``, the residual norm used
    throughout the package."""
    return float(np.abs(a).max(initial=0.0))


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
        orthonormality or reconstruction check (which a non-finite result
        always does).
    """
    m = as_hermitian(a)
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
