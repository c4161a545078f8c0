"""Independent numpy checks of CLI responses.

Every check parses the raw stdout text of one request and compares it with
values computed here from the generated inputs, never with numbers the
program reports about itself.  Bounds are the ones the README and the
acceptance suite document:

* projector roundtrip and projector structure: 1e-9;
* purity, dispersions and validation residuals: 1e-10;
* noiseless interferometric recovery: 1e-8; noisy phase: 0.2 rad;
* closed-form builders, families and evolved operators: 1e-12;
* ``I1 + I2 = 1`` on noiseless fringes and the beat phase
  ``wrap(base + (omega1 - omega2) t)``: 1e-12 and 1e-10.

A value beyond its bound but within :data:`GROSS` raises :class:`Miss`: a
precision defect.  Anything else that is off (malformed payload, wrong
structure, an error above ``GROSS``) raises :class:`Wrong`: a wrong answer.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Errors above this are wrong answers, not precision misses.
GROSS = 1e-6

ROUNDTRIP_TOL = 1e-9
RESIDUAL_TOL = 1e-10
RECOVERY_TOL = 1e-8
NOISY_PHASE_TOL = 0.2
EXACT_TOL = 1e-12
BEAT_TOL = 1e-10


class Miss(Exception):
    """The response is well formed but misses a documented bound."""


class Wrong(Exception):
    """The response is malformed or plainly incorrect."""


def within(what: str, err: float, bound: float, gross: float = GROSS) -> None:
    if not math.isfinite(err) or err > gross:
        raise Wrong(f"{what}: error {err:.3e} (bound {bound:g})")
    if err > bound:
        raise Miss(f"{what}: error {err:.3e} exceeds {bound:g}")


def _max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _wrap(x):
    return np.pi - np.mod(np.pi - np.asarray(x, dtype=float), 2.0 * np.pi)


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise Wrong(f"response is not JSON: {exc}") from None


def _complex(raw, count: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise Wrong(f"{what} is not a list of number pairs") from None
    if arr.shape != (count, 2):
        raise Wrong(f"{what} has shape {arr.shape}, expected ({count}, 2)")
    return arr[:, 0] + 1j * arr[:, 1]


def _matrix(d, n: int) -> np.ndarray:
    if not isinstance(d, dict) or d.get("dim") != n:
        raise Wrong(f"expected a dimension-{n} matrix payload")
    return _complex(d.get("entries"), n * n, "entries").reshape(n, n)


def _op(d, n: int, trace_class: int) -> np.ndarray:
    m = _matrix(d, n)
    if d.get("trace_class") != trace_class:
        raise Wrong(f"trace_class {d.get('trace_class')!r}, expected {trace_class}")
    return m


def _number(d, key: str) -> float:
    value = d.get(key) if isinstance(d, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise Wrong(f"missing number {key!r}")
    return float(value)


def _csv(text: str, header: str, columns: int) -> np.ndarray:
    head, _, body = text.partition("\n")
    if head != header or not text.endswith("\n"):
        raise Wrong(f"CSV must start with {header!r} and end with a newline")
    rows = body.count("\n")
    tokens = body.replace("\n", ",").split(",")[:-1]
    if len(tokens) != rows * columns or body.count(",") != rows * (columns - 1):
        raise Wrong(f"CSV rows must have {columns} columns")
    try:
        values = np.array(tokens, dtype=float)
    except ValueError:
        raise Wrong("CSV holds a non-number") from None
    return values.reshape(rows, columns)


# --- spectral ---------------------------------------------------------------

def convert_op(text: str, h: np.ndarray, trace_class: int) -> None:
    """``convert --op``: a complete rank-1 family whose signed sum is ``h``."""
    d = _json(text)
    n = h.shape[0]
    raw = d.get("projectors") if isinstance(d, dict) else None
    if not isinstance(raw, list) or len(raw) != n or d.get("dim") != n:
        raise Wrong(f"expected {n} projectors")
    p = np.stack([_matrix(item, n) for item in raw])
    signs = d.get("signs")
    if (not isinstance(signs, list) or len(signs) != n
            or any(s not in (1, -1) or isinstance(s, bool) for s in signs)):
        raise Wrong("signs must be n entries of +1/-1")
    if sum(signs) != trace_class:
        raise Wrong(f"signs sum to {sum(signs)}, expected {trace_class}")
    s = np.asarray(signs, dtype=float)
    eye = np.eye(n)
    within("roundtrip", _max_abs(np.einsum("k,kij->ij", s, p) - h), ROUNDTRIP_TOL)
    within("completeness", _max_abs(p.sum(axis=0) - eye), ROUNDTRIP_TOL)
    within("hermiticity", _max_abs(p - p.conj().transpose(0, 2, 1)), ROUNDTRIP_TOL)
    within("idempotence", _max_abs(p @ p - p), ROUNDTRIP_TOL)
    within("rank one", _max_abs(np.trace(p, axis1=1, axis2=2) - 1.0), ROUNDTRIP_TOL)


def flip_family(text: str, frame: np.ndarray) -> None:
    """``convert --projectors --family flip``: members ``I - 2 P_k``."""
    d = _json(text)
    n = frame.shape[0]
    members = d.get("members") if isinstance(d, dict) else None
    if not isinstance(members, list) or len(members) != n:
        raise Wrong(f"expected {n} family members")
    eye = np.eye(n)
    for k, item in enumerate(members):
        col = frame[:, k]
        want = eye - 2.0 * np.outer(col, col.conj())
        within(f"member {k}", _max_abs(_op(item, n, n - 2) - want), EXACT_TOL)


def flip_op(text: str, frame: np.ndarray, signs) -> None:
    """``construct flip``: the signed sum over the frame's projectors."""
    n = frame.shape[0]
    s = np.asarray(signs, dtype=float)
    got = _op(_json(text), n, int(sum(signs)))
    within("signed sum", _max_abs(got - (frame * s) @ frame.conj().T), EXACT_TOL)


# --- analysis ---------------------------------------------------------------

def classify(text: str, rho: np.ndarray, kind: str) -> None:
    d = _json(text)
    if not isinstance(d, dict) or d.get("kind") != kind:
        raise Wrong(f"kind {d.get('kind') if isinstance(d, dict) else None!r}, expected {kind!r}")
    purity = float(np.sum(np.abs(rho) ** 2))  # tr(rho^2) for Hermitian rho
    tr = float(np.trace(rho).real)
    within("purity", abs(_number(d, "purity") - purity), RESIDUAL_TOL)
    within("rho_dispersion", abs(_number(d, "rho_dispersion") - (purity - tr * tr)),
           RESIDUAL_TOL)


def decompose(text: str, a: np.ndarray, psi: np.ndarray) -> None:
    d = _json(text)
    image = a @ psi
    mean = float(np.vdot(psi, image).real)
    dispersion = float(np.vdot(image, image).real) - mean * mean
    got_mean, got_disp = _number(d, "mean"), _number(d, "dispersion")
    within("mean", abs(got_mean - mean), RESIDUAL_TOL)
    within("dispersion", abs(got_disp - dispersion), RESIDUAL_TOL)
    residual = d.get("residual_state")
    if not isinstance(residual, dict) or residual.get("dim") != psi.size:
        raise Wrong("missing residual state")
    psi2 = _complex(residual.get("amplitudes"), psi.size, "amplitudes")
    within("residual norm", abs(np.linalg.norm(psi2) - 1.0), RESIDUAL_TOL)
    within("residual overlap", abs(np.vdot(psi, psi2)), RESIDUAL_TOL)
    recon = mean * psi + math.sqrt(max(got_disp, 0.0)) * psi2
    within("reconstruction", float(np.linalg.norm(image - recon)), ROUNDTRIP_TOL)


def validate(text: str, m: np.ndarray) -> None:
    d = _json(text)
    n = m.shape[0]
    eye = np.eye(n)
    trace = complex(np.trace(m))
    parity = n % 2
    tc = max(-n, min(n, int(round((trace.real - parity) / 2.0)) * 2 + parity))
    if not isinstance(d, dict) or d.get("dim") != n or d.get("trace_class") != tc:
        raise Wrong("dim or trace_class disagree with the input")
    want = {
        "hermiticity_residual": _max_abs(m - m.conj().T),
        "unitarity_residual": _max_abs(m @ m.conj().T - eye),
        "involution_residual": _max_abs(m @ m - eye),
        "trace_re": trace.real,
        "trace_im": trace.imag,
        "trace_class_distance": abs(trace - tc),
    }
    for key, value in want.items():
        within(key, abs(_number(d, key) - value), RESIDUAL_TOL)


def h2_matrix(gamma_deg: float, dphi_deg: float) -> np.ndarray:
    g, p = math.radians(gamma_deg), math.radians(dphi_deg)
    off = math.sin(g) * complex(math.cos(p), math.sin(p))
    return np.array([[math.cos(g), off], [off.conjugate(), -math.cos(g)]])


def construct_h2(text: str, gamma_deg: float, dphi_deg: float) -> None:
    got = _op(_json(text), 2, 0)
    within("h2", _max_abs(got - h2_matrix(gamma_deg, dphi_deg)), EXACT_TOL)


def construct_diag(text: str, alphas, sign: int, phases_deg) -> None:
    """Rank-one-deficiency branch ``s (I - 2 c c^+)`` with
    ``|c_i|^2 = (1 - s alpha_i) / 2`` and first-row phases as given."""
    n = len(alphas)
    got = _op(_json(text), n, sign * (n - 2))
    mags = np.sqrt(np.maximum((1.0 - sign * np.asarray(alphas)) / 2.0, 0.0))
    thetas = np.concatenate([[0.0], -np.radians(phases_deg)])
    c = mags * np.exp(1j * thetas)
    c = c / np.linalg.norm(c)
    want = sign * (np.eye(n) - 2.0 * np.outer(c, c.conj()))
    within("diag operator", _max_abs(got - want), RESIDUAL_TOL)
    within("diagonal", _max_abs(np.diag(got).real - np.asarray(alphas)), RESIDUAL_TOL)


def construct_kron(text: str, a: np.ndarray, b: np.ndarray, member: str | None) -> None:
    eye = np.eye(2)
    family = {"ib": np.kron(eye, b), "ai": np.kron(a, eye), "ab": np.kron(a, b)}
    d = _json(text)
    if member is not None:
        pairs = [(_op(d, 4, 0), family[member])]
    else:
        raw = d.get("members") if isinstance(d, dict) else None
        if not isinstance(raw, list) or len(raw) != 3:
            raise Wrong("expected 3 family members")
        pairs = [(_op(item, 4, 0), family[key])
                 for item, key in zip(raw, ("ib", "ai", "ab"))]
    for got, want in pairs:
        within("kron member", _max_abs(got - want), EXACT_TOL)


# --- sweep ------------------------------------------------------------------

_SPLITTER = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _fringe(state: np.ndarray, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    shifted = state[1] * np.exp(1j * phases)
    out1 = _SPLITTER[0, 0] * state[0] + _SPLITTER[0, 1] * shifted
    out2 = _SPLITTER[1, 0] * state[0] + _SPLITTER[1, 1] * shifted
    return np.abs(out1) ** 2, np.abs(out2) ** 2


def report(text: str, state: np.ndarray, noise: float) -> None:
    """``simulate`` report: recovered arms against the input state."""
    d = _json(text)
    rec = d.get("recovered") if isinstance(d, dict) else None
    err = d.get("truth_error") if isinstance(d, dict) else None
    if not isinstance(rec, dict) or not isinstance(err, dict):
        raise Wrong("report lacks 'recovered' or 'truth_error'")
    mag1, mag2, phase = (_number(rec, k) for k in ("mag1", "mag2", "relative_phase"))
    true1, true2 = sorted(np.abs(state), reverse=True)
    true_phase = float(np.angle(state[1]) - np.angle(state[0]))
    errs = (abs(mag1 - true1), abs(mag2 - true2),
            abs(float(_wrap(phase - true_phase))))
    for key, value in zip(("mag1", "mag2", "phase"), errs):
        within(f"reported truth_error.{key}", abs(_number(err, key) - value), EXACT_TOL)
    if noise == 0.0:
        within("recovered mag1", errs[0], RECOVERY_TOL)
        within("recovered mag2", errs[1], RECOVERY_TOL)
        within("recovered phase", errs[2], RECOVERY_TOL)
    else:
        within("noisy phase", errs[2], NOISY_PHASE_TOL, gross=1.0)


def fringes(text: str, state: np.ndarray, count: int) -> None:
    """Noiseless ``simulate --fringes``: the oracle fringe, ``I1 + I2 = 1``."""
    rows = _csv(text, "phi,I1,I2", 3)
    if rows.shape[0] != count:
        raise Wrong(f"{rows.shape[0]} fringe rows, expected {count}")
    phases = 2.0 * np.pi * np.arange(count) / count
    within("sweep phases", _max_abs(rows[:, 0] - phases), EXACT_TOL)
    i1, i2 = _fringe(state, rows[:, 0])
    within("port 1", _max_abs(rows[:, 1] - i1), EXACT_TOL)
    within("port 2", _max_abs(rows[:, 2] - i2), EXACT_TOL)
    within("I1 + I2 = 1", _max_abs(rows[:, 1] + rows[:, 2] - 1.0), EXACT_TOL)


def _evolved(h: np.ndarray, detuning: float, t: float) -> np.ndarray:
    m = np.array(h, dtype=complex)
    m[0, 1] = m[0, 1] * np.exp(1j * detuning * t)
    m[1, 0] = np.conj(m[0, 1])
    return m


def evolve_time(text: str, h: np.ndarray, omega1: float, omega2: float, t: float) -> None:
    got = _op(_json(text), 2, 0)
    within("evolved operator", _max_abs(got - _evolved(h, omega1 - omega2, t)), EXACT_TOL)
    within("evolved involution", _max_abs(got @ got - np.eye(2)), EXACT_TOL)


def beat(text: str, h: np.ndarray, omega1: float, omega2: float, times: list[float]) -> None:
    rows = _csv(text, "t,delta_phi", 2)
    if rows.shape[0] != len(times):
        raise Wrong(f"{rows.shape[0]} beat rows, expected {len(times)}")
    t = np.asarray(times, dtype=float)
    if not np.array_equal(rows[:, 0], t):
        raise Wrong("beat times differ from the request")
    want = _wrap(float(np.angle(h[0, 1])) + (omega1 - omega2) * t)
    within("beat phase", _max_abs(_wrap(rows[:, 1] - want)), BEAT_TOL)
