"""Seeded inputs and request mixes of the three workloads.

Every input is generated here from the workload seed, written to a file in
the run's work directory, and handed to the program only as a path or an
argv string.  Each request carries a check: an oracle function bound to the
exact values that were written, so that the verifier never trusts anything
the program reports about its own inputs.

The mix of one round is fixed per workload (kind, size and count of every
request); the seed draws the matrices, states, trace classes within their
stratum, sweep sizes within their octave and the request order.  A fixed
mix keeps the work per run steady across seeds, and the counts are chosen
so that the median and the tail latency each fall inside one size class,
not on the boundary between two (see ``perfbench/README.md``).
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

#: ``simulate`` sweeps span 2**4 ... 2**16 phases, one antithetic pair of
#: draws per octave so that the summed sweep length barely moves with seed.
SWEEP_OCTAVES = range(4, 17)
SWEEP_MIN, SWEEP_MAX = 16, 65536
#: Longest ``evolve --times`` list: 6000 six-decimal times stay under 128 KiB.
TIMES_MAX = 6000
ARGV_LIMIT = 128 * 1024


@dataclass(frozen=True)
class Request:
    """One CLI call: argv for ``eigenschaft.cli.main`` plus its check."""

    kind: str
    size: int
    argv: tuple[str, ...]
    check: Callable[[str], None]
    in_bytes: int

    @property
    def label(self) -> str:
        return f"{self.kind}/{self.size}"


class InputFiles:
    """Writes generated JSON payloads into one directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self._count = 0

    def write(self, payload) -> tuple[str, int]:
        path = os.path.join(self.directory, f"in{self._count:05d}.json")
        self._count += 1
        text = json.dumps(payload, separators=(",", ":"))
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        return path, len(text)


# --- generators -------------------------------------------------------------

def haar_frame(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary by QR of a complex Ginibre matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def signs_with_sum(n: int, trace_class: int, rng: np.random.Generator) -> np.ndarray:
    n_plus = (n + trace_class) // 2
    return rng.permutation(np.array([1] * n_plus + [-1] * (n - n_plus)))


def involution(frame: np.ndarray, signs) -> np.ndarray:
    m = (frame * np.asarray(signs, dtype=float)) @ frame.conj().T
    return (m + m.conj().T) / 2.0


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    amp = rng.normal(size=n) + 1j * rng.normal(size=n)
    return amp / np.linalg.norm(amp)


def pairs(values) -> list[list[float]]:
    flat = np.asarray(values, dtype=complex).ravel()
    return np.column_stack((flat.real, flat.imag)).tolist()


def matrix_payload(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "entries": pairs(m)}


def state_payload(amp: np.ndarray) -> dict:
    return {"dim": int(amp.size), "amplitudes": pairs(amp)}


def bulk_trace_class(n: int, rng: np.random.Generator) -> int:
    """A trace class from the balanced bulk, ``|k| <= n/8``."""
    limit = max(n // 8, 1)
    choices = [k for k in range(-limit, limit + 1) if (k - n) % 2 == 0]
    return int(rng.choice(choices))


def octave_sizes(rng: np.random.Generator, lo: int = SWEEP_MIN, hi: int = SWEEP_MAX,
                 octaves=SWEEP_OCTAVES) -> list[int]:
    """Two sizes per octave ``2**k``: ``2**(k - 1/2 + u)`` and its antithetic
    partner ``2**(k + 1/2 - u)``, so the pair's sum is within 3% of fixed."""
    sizes = []
    for k in octaves:
        u = rng.random()
        for e in (k - 0.5 + u, k + 0.5 - u):
            sizes.append(int(min(hi, max(lo, round(2.0 ** e)))))
    return sizes


def _num(x: float) -> str:
    return repr(float(x))


# --- spectral: involutions, projector families -----------------------------

def _convert_op(rng, files: InputFiles, n: int, index: int,
                bulk_only: bool = False) -> Request:
    """``convert --op``; every other request of a size is near-degenerate
    (trace class +-(n-2)), the others come from the bulk."""
    if index % 2 == 0 and not bulk_only:
        trace_class = int(rng.choice([-1, 1])) * (n - 2)
    else:
        trace_class = bulk_trace_class(n, rng)
    h = involution(haar_frame(n, rng), signs_with_sum(n, trace_class, rng))
    path, size = files.write(dict(matrix_payload(h), trace_class=trace_class))
    check = functools.partial(oracle.convert_op, h=h, trace_class=trace_class)
    return Request("convert-op", n, ("convert", "--op", path), check, size)


def _projector_set(rng, files: InputFiles, n: int) -> tuple[np.ndarray, str, int]:
    frame = haar_frame(n, rng)
    payload = {"dim": n, "projectors": [
        matrix_payload(np.outer(frame[:, k], frame[:, k].conj())) for k in range(n)
    ]}
    path, size = files.write(payload)
    return frame, path, size


def _convert_ps(rng, files: InputFiles, n: int, index: int) -> Request:
    frame, path, size = _projector_set(rng, files, n)
    check = functools.partial(oracle.flip_family, frame=frame)
    argv = ("convert", "--projectors", path, "--family", "flip")
    return Request("convert-ps", n, argv, check, size)


def _construct_flip(rng, files: InputFiles, n: int, index: int) -> Request:
    frame, path, size = _projector_set(rng, files, n)
    signs = [int(s) for s in rng.choice([-1, 1], size=n)]
    check = functools.partial(oracle.flip_op, frame=frame, signs=signs)
    argv = ("construct", "flip", "--projectors", path,
            "--signs=" + ",".join(str(s) for s in signs))
    return Request("flip", n, argv, check, size)


# --- analysis: density matrices, decompositions, validation, builders -------

def _classify_mixed(rng, files: InputFiles, n: int, index: int) -> Request:
    """Full-rank mixed state with distinct eigenvalues: Dirichlet spectrum
    in a Haar frame."""
    frame = haar_frame(n, rng)
    rho = (frame * rng.dirichlet(np.ones(n))) @ frame.conj().T
    return _classify(files, "classify-mixed", (rho + rho.conj().T) / 2.0, "mixture")


def _classify_pure(rng, files: InputFiles, n: int, index: int) -> Request:
    psi = random_state(n, rng)
    return _classify(files, "classify-pure", np.outer(psi, psi.conj()), "pure")


def _classify_trunc(rng, files: InputFiles, n: int, index: int) -> Request:
    """Diagonal truncation of a pure state: unit trace, purity below one."""
    psi = random_state(n, rng)
    return _classify(files, "classify-trunc", np.diag(np.abs(psi) ** 2).astype(complex),
                     "mixture")


def _classify(files: InputFiles, kind: str, rho: np.ndarray, expected: str) -> Request:
    path, size = files.write(matrix_payload(rho))
    check = functools.partial(oracle.classify, rho=rho, kind=expected)
    return Request(kind, rho.shape[0], ("classify", "--rho", path), check, size)


def _decompose(rng, files: InputFiles, n: int, index: int) -> Request:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (z + z.conj().T) / (2.0 * math.sqrt(n))
    psi = random_state(n, rng)
    op_path, op_size = files.write(matrix_payload(a))
    st_path, st_size = files.write(state_payload(psi))
    check = functools.partial(oracle.decompose, a=a, psi=psi)
    return Request("decompose", n, ("decompose", "--op", op_path, "--state", st_path),
                   check, op_size + st_size)


def _validate_strict(rng, files: InputFiles, n: int, index: int) -> Request:
    trace_class = bulk_trace_class(n, rng)
    m = involution(haar_frame(n, rng), signs_with_sum(n, trace_class, rng))
    path, size = files.write(matrix_payload(m))
    check = functools.partial(oracle.validate, m=m)
    return Request("validate-strict", n, ("validate", path, "--strict"), check, size)


def _validate_perturbed(rng, files: InputFiles, n: int, index: int) -> Request:
    """An involution plus a 1e-3 non-Hermitian perturbation: every residual
    is nonzero and must be reported as computed."""
    trace_class = bulk_trace_class(n, rng)
    m = involution(haar_frame(n, rng), signs_with_sum(n, trace_class, rng))
    m = m + 1e-3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
    path, size = files.write(matrix_payload(m))
    check = functools.partial(oracle.validate, m=m)
    return Request("validate-perturbed", n, ("validate", path), check, size)


def _h2_angles(rng) -> tuple[float, float]:
    """Mixing angle kept away from 0 and 180 degrees, so that the
    off-diagonal phase stays defined."""
    return float(rng.uniform(10.0, 170.0)), float(rng.uniform(-180.0, 180.0))


def _construct_h2(rng, files: InputFiles, n: int, index: int) -> Request:
    gamma, dphi = _h2_angles(rng)
    check = functools.partial(oracle.construct_h2, gamma_deg=gamma, dphi_deg=dphi)
    argv = ("construct", "h2", f"--gamma={_num(gamma)}", f"--dphi={_num(dphi)}")
    return Request("construct-h2", 2, argv, check, 0)


def _construct_diag(rng, files: InputFiles, n: int, index: int) -> Request:
    """Dimension 3 or 4 (by ``n``), trace sign alternating with ``index``."""
    sign = 1 if index % 2 == 0 else -1
    weights = rng.dirichlet(np.ones(n))
    alphas = [float(sign * (1.0 - 2.0 * w)) for w in weights]
    phases = [float(p) for p in rng.uniform(-180.0, 180.0, size=n - 1)]
    check = functools.partial(oracle.construct_diag, alphas=alphas, sign=sign,
                              phases_deg=phases)
    argv = ("construct", "diag", "--dim", str(n),
            "--alphas=" + ",".join(_num(a) for a in alphas),
            f"--sign={sign:+d}", "--phases=" + ",".join(_num(p) for p in phases))
    return Request("construct-diag", n, argv, check, 0)


def _construct_kron(rng, files: InputFiles, n: int, index: int) -> Request:
    a = oracle.h2_matrix(*_h2_angles(rng))
    b = oracle.h2_matrix(*_h2_angles(rng))
    a_path, a_size = files.write(dict(matrix_payload(a), trace_class=0))
    b_path, b_size = files.write(dict(matrix_payload(b), trace_class=0))
    member = (None, "ib", "ai", "ab")[index % 4]
    argv = ("construct", "kron", "--a", a_path, "--b", b_path)
    if member is not None:
        argv += ("--member", member)
    check = functools.partial(oracle.construct_kron, a=a, b=b, member=member)
    return Request("construct-kron", 4, argv, check, a_size + b_size)


# --- sweep: interferometer and two-level dynamics ---------------------------

EQUAL_ARMS = np.array([1.0, 1.0]) / math.sqrt(2.0)


def arm_state(rng, arms: str) -> np.ndarray:
    """``equal``: ``[1, 1]/sqrt(2)``; ``near``: arm populations
    ``(1 +- delta)/2`` with ``delta`` log-uniform in 1e-6 ... 1e-2;
    ``random``: populations in 0.1 ... 0.9.  Phases are random except for
    the equal-arm state."""
    if arms == "equal":
        return EQUAL_ARMS
    if arms == "near":
        p = (1.0 + 10.0 ** rng.uniform(-6.0, -2.0)) / 2.0
    else:
        p = float(rng.uniform(0.1, 0.9))
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=2))
    return np.array([math.sqrt(p), math.sqrt(1.0 - p)]) * phases


def _simulate_args(files: InputFiles, state: np.ndarray, count: int, noise: float,
                   seed: int) -> tuple[tuple[str, ...], int]:
    path, size = files.write(state_payload(state))
    return ("simulate", "--state", path, "--phases", str(count),
            "--noise", _num(noise), "--seed", str(seed)), size


def report_request(rng, files: InputFiles, count: int, arms: str, noise: float,
                   kind: str = "report") -> Request:
    state = arm_state(rng, arms)
    argv, size = _simulate_args(files, state, count, noise, int(rng.integers(2**31)))
    check = functools.partial(oracle.report, state=state, noise=noise)
    return Request(kind, count, argv, check, size)


def fringe_request(rng, files: InputFiles, count: int, arms: str) -> Request:
    state = arm_state(rng, arms)
    argv, size = _simulate_args(files, state, count, 0.0, 0)
    check = functools.partial(oracle.fringes, state=state, count=count)
    return Request("fringes", count, argv + ("--fringes",), check, size)


def _evolve_op(rng, files: InputFiles) -> tuple[np.ndarray, str, int, float, float]:
    h = oracle.h2_matrix(*_h2_angles(rng))
    path, size = files.write(dict(matrix_payload(h), trace_class=0))
    omega1, omega2 = (float(w) for w in rng.uniform(-5.0, 5.0, size=2))
    return h, path, size, omega1, omega2


def evolve_time_request(rng, files: InputFiles) -> Request:
    h, path, size, omega1, omega2 = _evolve_op(rng, files)
    t = float(rng.uniform(0.0, 50.0))
    check = functools.partial(oracle.evolve_time, h=h, omega1=omega1, omega2=omega2, t=t)
    argv = ("evolve", "--op", path, f"--omega1={_num(omega1)}",
            f"--omega2={_num(omega2)}", f"--time={_num(t)}")
    return Request("evolve-time", 1, argv, check, size)


def evolve_times_request(rng, files: InputFiles, count: int) -> Request:
    h, path, size, omega1, omega2 = _evolve_op(rng, files)
    text = ",".join(f"{t:.6f}" for t in np.sort(rng.uniform(0.0, 100.0, size=count)))
    if len(text) >= ARGV_LIMIT:
        raise ValueError(f"--times list of {len(text)} bytes exceeds 128 KiB")
    times = [float(tok) for tok in text.split(",")]
    check = functools.partial(oracle.beat, h=h, omega1=omega1, omega2=omega2, times=times)
    argv = ("evolve", "--op", path, f"--omega1={_num(omega1)}",
            f"--omega2={_num(omega2)}", "--times=" + text)
    return Request("evolve-times", count, argv, check, size)


# --- mixes ------------------------------------------------------------------

#: Per round: (kind, size, count).  The latency size classes are the
#: dimensions 4, 7, 16, 31 and 64.  Every other ``convert-op`` is
#: near-degenerate; ``convert-op-bulk`` draws bulk trace classes only, the
#: heavy eigensolve.  The median falls inside the ``flip``/7 block and the
#: tail rank inside the ``convert-op-bulk``/31 block.
SPECTRAL_MIX = [
    ("convert-op", 4, 13), ("convert-ps", 4, 10), ("flip", 4, 10),
    ("convert-op", 7, 4), ("convert-ps", 7, 4), ("flip", 7, 16),
    ("convert-op", 16, 2), ("convert-op-bulk", 16, 6), ("convert-ps", 16, 2), ("flip", 16, 2),
    ("convert-op-bulk", 31, 12), ("convert-ps", 31, 2), ("flip", 31, 2),
    ("convert-op-bulk", 64, 1),
]

ANALYSIS_MIX = [
    ("classify-mixed", 64, 1), ("classify-mixed", 31, 8), ("classify-mixed", 16, 4),
    ("classify-mixed", 7, 4), ("classify-mixed", 4, 4),
    *[(kind, n, 2) for kind in ("classify-pure", "classify-trunc", "decompose",
                                "validate-strict", "validate-perturbed")
      for n in (4, 7, 16, 31, 64)],
    ("construct-h2", 2, 4), ("construct-diag", 3, 2), ("construct-diag", 4, 2),
    ("construct-kron", 4, 4),
]

MATRIX_KINDS = {
    "convert-op": _convert_op,
    "convert-op-bulk": functools.partial(_convert_op, bulk_only=True),
    "convert-ps": _convert_ps,
    "flip": _construct_flip,
    "classify-mixed": _classify_mixed,
    "classify-pure": _classify_pure,
    "classify-trunc": _classify_trunc,
    "decompose": _decompose,
    "validate-strict": _validate_strict,
    "validate-perturbed": _validate_perturbed,
    "construct-h2": _construct_h2,
    "construct-diag": _construct_diag,
    "construct-kron": _construct_kron,
}


def matrix_round(mix, rng, files: InputFiles) -> list[Request]:
    return [MATRIX_KINDS[kind](rng, files, n, i)
            for kind, n, count in mix for i in range(count)]


#: Equal-arm noiseless reports per round, at consecutive sweep sizes from 16
#: upwards: a fixed scan, so the known equal-arm recovery misses show in
#: every run in the same number.
EQUAL_SCAN_PER_ROUND = 96
#: The slowest requests are fringe CSVs of this fixed length, enough of them
#: that the tail rank falls inside their class instead of on a drawn size.
FRINGE_TOP, FRINGE_TOP_PER_ROUND = 60000, 9


def sweep_round(rng, files: InputFiles, round_index: int) -> list[Request]:
    start = SWEEP_MIN + round_index * EQUAL_SCAN_PER_ROUND
    out = [report_request(rng, files, n, "equal", 0.0, kind="report-equal")
           for n in range(start, start + EQUAL_SCAN_PER_ROUND)]
    for arms, noise in (("random", 0.0), ("near", 0.0), ("random", 0.01),
                        ("equal", 0.01)):
        out += [report_request(rng, files, n, arms, noise) for n in octave_sizes(rng)]
    arms = ("random", "equal", "near")
    sizes = octave_sizes(rng, octaves=range(4, 16)) + [FRINGE_TOP] * FRINGE_TOP_PER_ROUND
    out += [fringe_request(rng, files, n, arms[i % 3]) for i, n in enumerate(sizes)]
    out += [evolve_time_request(rng, files) for _ in range(24)]
    out += [evolve_times_request(rng, files, n)
            for n in octave_sizes(rng, hi=TIMES_MAX, octaves=range(4, 13))]
    return out


def warmup_requests(name: str, rng, files: InputFiles) -> list[Request]:
    """One request of every kind in the workload's mix, at n <= 4."""
    if name == "sweep":
        return [report_request(rng, files, 16, "random", 0.0),
                fringe_request(rng, files, 16, "random"),
                evolve_time_request(rng, files),
                evolve_times_request(rng, files, 16)]
    mix = SPECTRAL_MIX if name == "spectral" else ANALYSIS_MIX
    kinds = {}
    for kind, n, _ in mix:
        kinds[kind] = min(n, kinds.get(kind, 4))
    return [MATRIX_KINDS[kind](rng, files, n, 0) for kind, n in kinds.items()]


def build(name: str, seed: int, rounds: int, directory: str
          ) -> tuple[list[Request], list[Request]]:
    """Requests for ``rounds`` rounds in seeded random order, plus warm-ups.

    Every round draws fresh inputs; the warm-ups come from their own stream
    so that they do not shift the measured inputs.
    """
    main_seq, warm_seq = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(main_seq)
    files = InputFiles(directory)
    requests = []
    for r in range(rounds):
        if name == "sweep":
            requests += sweep_round(rng, files, r)
        else:
            mix = SPECTRAL_MIX if name == "spectral" else ANALYSIS_MIX
            requests += matrix_round(mix, rng, files)
    order = rng.permutation(len(requests))
    warmups = warmup_requests(name, np.random.default_rng(warm_seq), files)
    return [requests[i] for i in order], warmups
