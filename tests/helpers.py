"""Shared random generators and references for the test suite.

Random involutions are built the canonical way: draw a Haar unitary, take
rank-1 projectors onto its columns, and flip a subset of signs.  The
structure a test relies on (a Haar frame, +-1 signs, a trace class, unit
norm) is planted by construction, so the package is checked against what
was planted, not against a second eigensolver.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

#: The exact checks admit ``EXACT_C * n * eps * max(1, s)`` between a
#: reported number and its exact value, ``s`` being the sum of the
#: magnitudes that the number adds up (README, 'Named thresholds').
EXACT_C = 2


def exact_bound(n: int, scale: float) -> float:
    """How far a reported number may lie from its exact value: ``EXACT_C *
    n * eps * max(1, scale)``."""
    return EXACT_C * n * np.finfo(float).eps * max(1.0, float(scale))


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


def sylvester_hadamard(n: int) -> np.ndarray:
    """The n x n Sylvester-Hadamard matrix of +-1 entries, n a power of 2;
    ``S / sqrt(n)`` is a real traceless involution (trace 0 from n = 2)."""
    s = np.ones((1, 1))
    while len(s) < n:
        s = np.kron(s, [[1.0, 1.0], [1.0, -1.0]])
    return s


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    amp = rng.normal(size=n) + 1j * rng.normal(size=n)
    return amp / np.linalg.norm(amp)


def csv_reference(header: str, rows) -> str:
    """The CSV text written row by row: ``float.__repr__`` of each value,
    joined by commas, one line per row."""
    return header + "\n" + "".join(
        ",".join(map(float.__repr__, row)) + "\n" for row in rows)


def householder_rational(v) -> np.ndarray:
    """``I - 2 v v^dag / (v^dag v)`` for a nonzero vector ``v`` of small
    Gaussian integers (their products are exact in floats), an exact
    involution, with each entry rounded once to the nearest complex float."""
    v = np.asarray(v, dtype=complex)
    norm2 = int((v.conj() @ v).real)
    h = np.empty((len(v), len(v)), dtype=complex)
    for (i, j), z in np.ndenumerate(np.outer(v, v.conj())):
        h[i, j] = complex(float((i == j) - Fraction(2 * int(z.real), norm2)),
                          float(Fraction(-2 * int(z.imag), norm2)))
    return h


def exact_gate_numbers(m) -> tuple[Fraction, Fraction, Fraction, int]:
    """The exact squares of ``validate``'s Hermiticity residual, involution
    residual and trace-class distance for the floats of the complex matrix
    ``m``, and its exact trace class.

    Every float is an integer over a power of two, so over the largest
    denominator ``d`` each entry is a pair of Python integers, and every
    sum and product below is exact.
    """
    n = m.shape[0]
    rows = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in m.tolist()]
    d = max(f.denominator for row in rows for z in row for f in z)
    a = [[(int(x * d), int(y * d)) for x, y in row] for row in rows]
    herm = max((a[i][j][0] - a[j][i][0]) ** 2 + (a[i][j][1] + a[j][i][1]) ** 2
               for i in range(n) for j in range(n))
    inv, cols = 0, list(zip(*a))
    for i in range(n):
        for j in range(n):
            terms = list(zip(a[i], cols[j]))
            re = sum(x * u - y * w for (x, y), (u, w) in terms) - (i == j) * d * d
            im = sum(x * w + y * u for (x, y), (u, w) in terms)
            inv = max(inv, re * re + im * im)
    tr_re, tr_im = (sum(a[i][i][c] for i in range(n)) for c in (0, 1))
    k = round((Fraction(tr_re, d) - n % 2) / 2) * 2 + n % 2
    k = max(-n, min(n, k))
    dist = (tr_re - k * d) ** 2 + tr_im ** 2
    return Fraction(herm, d * d), Fraction(inv, d ** 4), Fraction(dist, d * d), k


def exact_decomposition(a, psi) -> tuple[Fraction, Fraction]:
    """The exact mean and dispersion that ``decompose_state`` computes for
    the floats of the matrix ``a`` and the amplitudes ``psi``, by its own
    formula: ``mean = Re psi^dag (a psi)``, then the squared length of
    ``a psi - mean psi`` with ``psi`` projected out.  Complex numbers are
    pairs of ``Fraction``."""
    def pairs(values):
        return [(Fraction(z.real), Fraction(z.imag)) for z in values]

    x = pairs(psi.tolist())
    image = []
    for row in a.tolist():
        terms = list(zip(pairs(row), x))
        image.append((sum(p * u - q * w for (p, q), (u, w) in terms),
                      sum(p * w + q * u for (p, q), (u, w) in terms)))
    mean = sum(u * p + w * q for (u, w), (p, q) in zip(x, image))
    r = [(p - mean * u, q - mean * w) for (p, q), (u, w) in zip(image, x)]
    c_re = sum(u * p + w * q for (u, w), (p, q) in zip(x, r))
    c_im = sum(u * q - w * p for (u, w), (p, q) in zip(x, r))
    r = [(p - c_re * u + c_im * w, q - c_re * w - c_im * u)
         for (p, q), (u, w) in zip(r, x)]
    return mean, sum(p * p + q * q for p, q in r)


def within_exact(value: float, exact_square: Fraction, bound: float) -> bool:
    """Whether the nonnegative float ``value`` lies within ``bound`` of the
    square root of ``exact_square``, compared exactly through squares."""
    lo = max(Fraction(value) - Fraction(bound), Fraction(0))
    hi = Fraction(value) + Fraction(bound)
    return lo * lo <= exact_square <= hi * hi


def exact_fringe_fit(phases, i1, i2) -> list[Fraction]:
    """The exact least-squares coefficients ``c0, c1, c2`` of the fit that
    ``recover_state`` makes for the floats it fits: rows ``[1, cos phi, sin
    phi]`` against ``I1`` and ``[1, -cos phi, -sin phi]`` against ``I2``,
    with ``cos`` and ``sin`` as numpy rounds them.  The normal equations
    are solved by elimination in ``Fraction``s; they are positive definite
    for a design of rank 3, so no pivot is zero."""
    cos, sin = np.cos(phases).tolist(), np.sin(phases).tolist()
    rows = [(1, sign * c, sign * s, y)
            for sign, port in ((1, i1), (-1, i2))
            for c, s, y in zip(cos, sin, np.asarray(port).tolist())]
    rows = [[Fraction(x) for x in row] for row in rows]
    m = [[sum(r[i] * r[j] for r in rows) for j in range(4)] for i in range(3)]
    for k in range(3):
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(3):
            if i != k:
                m[i] = [x - m[i][k] * y for x, y in zip(m[i], m[k])]
    return [row[3] for row in m]
