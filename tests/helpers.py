"""Shared random generators and references for the test suite.

Random involutions are built the canonical way: draw a Haar unitary, take
rank-1 projectors onto its columns, and flip a subset of signs.  The
structure a test relies on (a Haar frame, +-1 signs, a trace class, unit
norm) is planted by construction, so the package is checked against what
was planted, not against a second eigensolver.
"""

from __future__ import annotations

import numpy as np


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2.0


def random_signs(n: int, rng: np.random.Generator,
                 trace_class: int | None = None) -> np.ndarray:
    """A +-1 vector, optionally with a prescribed sum."""
    if trace_class is None:
        return rng.choice([-1, 1], size=n)
    if abs(trace_class) > n or (trace_class - n) % 2 != 0:
        raise ValueError(f"trace class {trace_class} impossible for dim {n}")
    n_plus = (n + trace_class) // 2
    signs = np.array([1] * n_plus + [-1] * (n - n_plus))
    rng.shuffle(signs)
    return signs


def random_involution(n: int, rng: np.random.Generator,
                      trace_class: int | None = None) -> np.ndarray:
    """Hermitian involution: a sign-flip over a Haar-unitary projector set."""
    u = haar_unitary(n, rng)
    signs = random_signs(n, rng, trace_class)
    m = (u * signs) @ u.conj().T
    return (m + m.conj().T) / 2.0


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    amp = rng.normal(size=n) + 1j * rng.normal(size=n)
    return amp / np.linalg.norm(amp)


def csv_reference(header: str, rows) -> str:
    """The CSV text written row by row: ``float.__repr__`` of each value,
    joined by commas, one line per row."""
    return header + "\n" + "".join(
        ",".join(map(float.__repr__, row)) + "\n" for row in rows)
