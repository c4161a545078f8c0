"""Two-port interferometer with a Hermitian-involution beam splitter.

A controllable phase is swept on the second arm of a two-component state,
the splitter mixes the arms, and both output intensities are recorded; the
splitter is unitary, so at zero noise they sum to one.  One cosine fit of
the fringe recovers both arm magnitudes and the relative phase at once.

Recovery assumes the 50/50 splitter, ``conj(H00) H01 = 1/2``, for which
``I1, I2 = 1/2 +- |a||b| cos(phi + delta)``, ``delta`` being the relative
phase of the arms.  The fit cannot tell which arm owns which magnitude, so
magnitudes are reported in descending order, by convention.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError, ShapeError
from .linalg import (MAX_MAGNITUDE, TOL_INV, as_int, as_real, as_scalars,
                     check_residual, freeze_fields)
from .operators import EigenschaftOp, wrap_phase
from .states import StateVector

#: Fitted visibilities below this leave magnitudes and phase undetermined.
AMBIGUOUS_VISIBILITY = 1e-9
#: How far the fitted visibility may exceed twice the fitted offset before
#: a fringe is rejected as unphysical; allows shot noise at the percent level.
UNPHYSICAL_TOL = 0.05
#: Wrapped sweep phases equal to this many decimals count as one phase in
#: ``recover_state``'s three-phase gate.
PHASE_DECIMALS = 12
#: Largest fit condition ``kappa^2`` that ``recover_state`` admits.
MAX_CONDITION = 1e10


@dataclass(frozen=True, eq=False)
class InterferometerConfig:
    """Splitter, phase sweep, and additive intensity noise level."""

    splitter: EigenschaftOp
    sweep_phases: np.ndarray
    shot_noise_sigma: float = 0.0

    def __post_init__(self):
        if self.splitter.dim != 2:
            raise ShapeError("splitter must be a dimension-2 operator")
        phases = as_real(self.sweep_phases, "sweep phases").reshape(-1)
        if phases.size == 0:
            raise DomainError("phase sweep must be non-empty")
        (sigma,) = as_scalars((self.shot_noise_sigma,), "shot noise sigma")
        if sigma < 0.0:
            raise DomainError("shot noise sigma must be nonnegative")
        freeze_fields(self, sweep_phases=phases, shot_noise_sigma=sigma)


def uniform_sweep(n: int) -> np.ndarray:
    """``n`` equally spaced phases covering one full fringe period.

    ``n`` must be a Python or numpy integer, not a ``bool``; a fractional
    count would not close the period, and a count past the largest float
    array numpy can index would not fit in one, so both are refused with
    ``DomainError``.
    """
    n = as_int(n, "sweep size")
    if n < 1:
        raise DomainError("sweep needs at least one phase")
    if n > np.iinfo(np.intp).max // np.dtype(float).itemsize:
        raise DomainError(f"sweep size {n} is more phases than a numpy array can hold")
    return 2.0 * np.pi * np.arange(n) / n


@dataclass(frozen=True, eq=False)
class FringeRecord:
    """Sampled output intensities of both ports over the phase sweep."""

    phases: np.ndarray
    intensity_port1: np.ndarray
    intensity_port2: np.ndarray

    def __post_init__(self):
        phases, i1, i2 = (
            as_real(arr, name).reshape(-1)
            for name, arr in (("phases", self.phases), ("I1", self.intensity_port1),
                              ("I2", self.intensity_port2)))
        if not (phases.size == i1.size == i2.size) or phases.size == 0:
            raise ShapeError("phases and intensities must have equal nonzero length")
        if np.any(i1 < 0.0) or np.any(i2 < 0.0):
            raise DomainError("intensities must be nonnegative")
        freeze_fields(self, phases=phases, intensity_port1=i1,
                      intensity_port2=i2)


@dataclass(frozen=True)
class RecoveredState:
    """Arm magnitudes (descending; the ordering is conventional) and the
    relative phase ``arg b - arg a`` in ``(-pi, pi]``."""

    mag1: float
    mag2: float
    relative_phase: float


@dataclass(frozen=True)
class FitDiagnostics:
    """Cosine-fit quality: RMS residual, fitted offset and visibility, the
    sweep's condition ``kappa^2``, and whether the fringe was too flat to
    determine phase and magnitude split."""

    residual_rms: float
    offset: float
    visibility: float
    condition: float
    ambiguous: bool


@dataclass(frozen=True)
class RecoveryResult:
    state: RecoveredState
    diagnostics: FitDiagnostics


@dataclass(frozen=True)
class TruthError:
    """Componentwise recovery error against a known input state; the phase
    error is wrapped."""

    mag1: float
    mag2: float
    phase: float


@dataclass(frozen=True)
class HolographicReport:
    recovered: RecoveredState
    diagnostics: FitDiagnostics
    truth_error: TruthError


def run_interferometer(state: StateVector, cfg: InterferometerConfig,
                       rng_seed: int = 0) -> FringeRecord:
    """Sweep the reference phase and record both output intensities.

    For each sweep phase the second component is advanced by ``exp(i phi)``
    and the splitter applied; intensities are squared moduli plus optional
    additive Gaussian noise (clamped to ``[0, MAX_MAGNITUDE]``).  Fully
    deterministic for a given seed; with noise on, a seed that is not a
    nonnegative integer raises ``DomainError``.
    """
    if state.dim != 2:
        raise ShapeError("interferometer input must be a two-component state")
    a, b = state.amplitudes
    h = cfg.splitter.matrix
    phases = cfg.sweep_phases
    shifted = b * np.exp(1j * phases)
    out1 = h[0, 0] * a + h[0, 1] * shifted
    out2 = h[1, 0] * a + h[1, 1] * shifted
    i1 = np.abs(out1) ** 2
    i2 = np.abs(out2) ** 2
    if cfg.shot_noise_sigma > 0.0:
        if as_int(rng_seed, "noise seed") < 0:
            raise DomainError(
                f"noise seed must be a nonnegative integer, got {rng_seed!r}"
            )
        rng = np.random.default_rng(rng_seed)
        i1 = i1 + rng.normal(0.0, cfg.shot_noise_sigma, phases.size)
        i2 = i2 + rng.normal(0.0, cfg.shot_noise_sigma, phases.size)
        i1 = np.clip(i1, 0.0, MAX_MAGNITUDE)
        i2 = np.clip(i2, 0.0, MAX_MAGNITUDE)
    return FringeRecord(phases=phases, intensity_port1=i1, intensity_port2=i2)


def recover_state(fr: FringeRecord) -> RecoveryResult:
    """Invert a fringe record into arm magnitudes and relative phase.

    Fits ``[1, cos phi, sin phi]`` to ``I1`` and ``[1, -cos phi, -sin phi]`` to
    ``I2`` by least squares in closed form, the offset column being orthogonal
    to the others, plus one refinement step: ``C = sum(I1 + I2) / 2N``, ``w =
    c1 - i c2 = (N conj(Z) - conj(S2) Z) / (low (2N - low))``, ``Z = sum exp(i
    phi) (I1 - I2)``, ``S2 = sum exp(2i phi)``, ``low = N - |S2| = 2 sum
    sin^2(phi - arg(S2) / 2)``.  Fewer than 3 distinct phases, or ``condition =
    kappa^2 = (2N - low) / low`` past ``MAX_CONDITION``, raise ``FitError``.
    ``mag1^2 + mag2^2 = 2C``, ``2 mag1 mag2 = V = 2|w|`` and the relative phase
    is ``arg w``; ``V > 2C + UNPHYSICAL_TOL`` is rejected as unphysical.
    """
    phases = fr.phases
    # Three distinct values exist iff one lies strictly between the extremes.
    # This O(N) test takes -0.0 == 0.0, as a sort does, and avoids
    # ``np.unique``, which in numpy 2 imports all of ``numpy.ma`` on first use.
    r = np.round(wrap_phase(phases), PHASE_DECIMALS)
    if not np.any((r > r.min()) & (r < r.max())):
        raise FitError("need at least 3 distinct sweep phases (mod 2 pi)")
    n, cos, sin = phases.size, np.cos(phases), np.sin(phases)
    s2 = complex(cos @ cos - sin @ sin, 2.0 * (cos @ sin))
    # A sum of squares: N^2 - |S2|^2 reads 0 on [0, 1e-11, 2e-11]. > 0 past the gate.
    turned = np.sin(phases - cmath.phase(s2) / 2.0)
    low = 2.0 * float(turned @ turned)
    condition = (2.0 * n - low) / low
    if not condition <= MAX_CONDITION:
        raise FitError(f"near-duplicate sweep phases: fit condition kappa^2 = "
                       f"{condition:.3g} exceeds MAX_CONDITION = {MAX_CONDITION:g}")
    # The second pass refines: roundoff d in 2C - V costs sqrt(d) / 2 per magnitude.
    i1, i2 = fr.intensity_port1, fr.intensity_port2
    offset, w, r1, r2 = 0.0, 0j, i1, i2
    for _ in range(2):
        diff = r1 - r2
        z = complex(cos @ diff, sin @ diff)
        offset += float(np.sum(r1 + r2)) / (2.0 * n)
        w += (n * z.conjugate() - s2.conjugate() * z) / (low * (2.0 * n - low))
        fringe = w.real * cos - w.imag * sin
        r1, r2 = i1 - (offset + fringe), i2 - (offset - fringe)
    visibility = 2.0 * abs(w)
    if offset <= 0.0:
        raise FitError("fitted offset is nonpositive; fringe is unphysical")
    if visibility > 2.0 * offset + UNPHYSICAL_TOL:
        raise FitError(f"fitted visibility {visibility:.3g} exceeds the unitarity "
                       f"bound 2C = {2.0 * offset:.3g}")
    ambiguous = visibility < AMBIGUOUS_VISIBILITY
    u = float(np.sqrt(2.0 * offset + visibility))
    v = float(np.sqrt(max(2.0 * offset - visibility, 0.0)))
    phase = 0.0 if ambiguous else wrap_phase(cmath.phase(w))
    residual_rms = float(np.sqrt((r1 @ r1 + r2 @ r2) / (2.0 * n)))
    return RecoveryResult(
        RecoveredState(mag1=(u + v) / 2.0, mag2=(u - v) / 2.0, relative_phase=phase),
        FitDiagnostics(residual_rms=residual_rms, offset=offset, visibility=visibility,
                       condition=condition, ambiguous=ambiguous))


def holographic_report(state: StateVector, cfg: InterferometerConfig,
                       seed: int = 0) -> HolographicReport:
    """Run the sweep, invert the fringe, and compare against ground truth.

    Magnitude errors are taken against the descending-sorted true arm
    magnitudes (matching the recovery's ordering convention); the phase
    error is the wrapped difference of relative phases.

    The fit's model holds only for a splitter with ``conj(H00) H01 = 1/2``;
    a gap past ``TOL_INV`` raises ``DomainError`` naming the gap.
    """
    h = cfg.splitter.matrix
    check_residual(abs(complex(np.conj(h[0, 0]) * h[0, 1]) - 0.5), TOL_INV,
                   "holographic recovery needs the 50/50 splitter, conj(H00)*H01 = 1/2")
    fringe = run_interferometer(state, cfg, rng_seed=seed)
    result = recover_state(fringe)
    a, b = state.amplitudes
    true_mags = sorted((float(abs(a)), float(abs(b))), reverse=True)
    true_phase = wrap_phase(float(np.angle(b) - np.angle(a)))
    rec = result.state
    return HolographicReport(
        recovered=rec,
        diagnostics=result.diagnostics,
        truth_error=TruthError(
            mag1=abs(rec.mag1 - true_mags[0]),
            mag2=abs(rec.mag2 - true_mags[1]),
            phase=abs(wrap_phase(rec.relative_phase - true_phase)),
        ),
    )
