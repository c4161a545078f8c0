"""Dense complex matrix kernel.

Matrix coercion, max-norm residuals (Hermiticity, unitarity, involution)
and the package's one eigensolver for Hermitian matrices.  Everything in
this module is a pure function of ``numpy`` arrays; matrices are dense,
row-major, and small: an operator has at most ``MAX_DIM`` rows.

``hermitian_eig`` is LAPACK's backward-stable Hermitian solver
(``numpy.linalg.eigh``, ``zheevd``) between the package's own gates: the
input must be finite and Hermitian within ``TOL_HERM``, and the result must
pass an orthonormality and a reconstruction check, so a caller never gets
an unchecked spectrum.  It serves the positivity gate of
``states.DensityMatrix`` and the spectral resolution in
``operators.to_projectors``.

Every number the package takes enters through ``numeric_array``, the one
place where outside input meets ``np.asarray``: it refuses anything but an
evenly nested array of numbers.  ``as_numeric`` adds the bound, each number
finite and at most ``MAX_MAGNITUDE`` (compared in float64); ``as_real``,
``as_scalars`` and ``as_square`` are that call for real numbers, single
numbers and matrices, and each door keeps what its call returns: a matrix
door runs ``as_square`` once and the ``*_kernel`` residuals on its result.
``operators.wrap_phase``, which wraps derived phases past the bound, takes
``numeric_array`` and checks only that its phases are real and finite.  A
sum of up to ``1e100`` products of two bounded numbers stays finite, so the
arithmetic after the check cannot overflow.  Integer arguments (dimensions,
counts, indices, seeds, signs) pass ``as_int`` instead.
"""

from __future__ import annotations

import numbers
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
#: Largest operator dimension, up to which ``to_projectors`` needs no check.
MAX_DIM = 64


def numeric_array(a, noun: str, error=DomainError) -> np.ndarray:
    """``np.asarray(a)``, refused as ``{noun} must be numeric`` with
    ``error`` if it holds a non-number or unevenly nested sequences, before
    any cast could read ``"0.5"`` as a number or fail with numpy's error."""
    try:
        a = np.asarray(a)
    except ValueError:
        raise error(f"{noun} must be numeric") from None
    if a.dtype.kind not in "biufc":
        raise error(f"{noun} must be numeric")
    return a


def as_numeric(a, noun: str, error=DomainError) -> np.ndarray:
    """:func:`numeric_array`, refused with ``error`` naming ``noun`` if an
    entry is not finite or is past ``MAX_MAGNITUDE``.  That bound is
    compared in float64 before any cast: it overflows a float32, and a
    longdouble past float64's range is refused, not cast to inf."""
    a = numeric_array(a, noun, error)
    if not max_abs(a) <= MAX_MAGNITUDE:
        raise error(
            f"{noun} must be finite and at most {MAX_MAGNITUDE:g} in magnitude"
        )
    return a


def as_real(a, noun: str, error=DomainError) -> np.ndarray:
    """:func:`as_numeric`, then refused as ``{noun} must be real`` if its
    dtype is complex (a cast would drop the imaginary part); returned as a
    float64 array."""
    a = as_numeric(a, noun, error)
    if a.dtype.kind == "c":
        raise error(f"{noun} must be real")
    return a.astype(float, copy=False)


def as_scalars(values: tuple, noun: str, door=as_real) -> list:
    """``door(values, noun)`` as a list of Python numbers, refused as
    ``{noun} must be scalar`` if one of ``values`` is a sequence."""
    a = door(values, noun)
    if a.ndim != 1:
        raise DomainError(f"{noun} must be scalar")
    return a.tolist()


def as_square(a) -> np.ndarray:
    """Coerce ``a`` to a non-empty square complex matrix with entries
    within ``MAX_MAGNITUDE``."""
    m = as_numeric(a, "matrix entries").astype(complex, copy=False)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise ShapeError("matrix must be non-empty")
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_int(n, noun: str, error=DomainError) -> int:
    """``n`` as an ``int``, refused with ``error`` naming ``noun`` unless it
    is a Python or numpy integer; a ``bool``, which numpy reads as 1 or as
    a mask, is refused too.  Each caller checks its own range."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise error(f"{noun} must be an integer, got {n!r}")
    return int(n)


def as_dim(n) -> int:
    """:func:`as_int`, refused with ``DomainError`` unless from 1 to the
    longest axis numpy indexes."""
    n = as_int(n, "dim")
    if not 1 <= n <= np.iinfo(np.intp).max:
        raise DomainError(f"dim must be from 1 to {np.iinfo(np.intp).max}, got {n}")
    return n


def as_hermitian(a) -> np.ndarray:
    """``as_square(a)`` through :func:`check_hermitian`."""
    return check_hermitian(as_square(a))


def check_hermitian(m: np.ndarray) -> np.ndarray:
    """``m``, as :func:`as_square` returns it, refused with ``DomainError``
    unless its Hermiticity residual is within ``TOL_HERM``."""
    herm = hermiticity_kernel(m)
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
    return hermiticity_kernel(as_square(a))


def unitarity_residual(a) -> float:
    """``max_abs(a @ a^dag - I)``; zero iff ``a`` is unitary."""
    return unitarity_kernel(as_square(a))


def involution_residual(a) -> float:
    """``max_abs(a @ a - I)``; zero iff ``a`` squares to the identity."""
    return involution_kernel(as_square(a))


def hermiticity_kernel(m: np.ndarray) -> float:
    """:func:`hermiticity_residual` of a matrix ``as_square`` returned."""
    return max_abs(m - m.conj().T)


def unitarity_kernel(m: np.ndarray) -> float:
    """:func:`unitarity_residual` of a matrix ``as_square`` returned."""
    return max_abs(m @ m.conj().T - np.eye(m.shape[0]))


def involution_kernel(m: np.ndarray) -> float:
    """:func:`involution_residual` of a matrix ``as_square`` returned."""
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
