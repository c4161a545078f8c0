"""Two-port interferometer with a Hermitian-involution beam splitter.

A controllable phase is applied to the second component of a two-component
state, the splitter mixes the components, and both output intensities are
recorded over the phase sweep.  Because the splitter is an involution it is
unitary, so at zero noise the two intensities sum to one at every sweep
point.  From the sampled fringe a cosine fit recovers both arm magnitudes
and the relative phase simultaneously: amplitude and phase information in
one pass.

Recovery assumes the symmetric 50/50 splitter, for which the port-1
intensity obeys ``I1(phi) = 1/2 + |a||b| cos(phi + delta)`` with ``delta``
the relative phase of the input arms; ``holographic_report`` refuses any
splitter without ``conj(H00) H01 = 1/2``.  The fit cannot tell which arm
owns which magnitude, so magnitudes are reported in descending order and
flagged as conventional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError, ShapeError
from .linalg import MAX_MAGNITUDE, TOL_INV, as_int, as_real, as_scalars, freeze_fields
from .operators import EigenschaftOp, wrap_phase
from .states import StateVector

#: Fitted visibilities below this leave magnitudes and phase undetermined.
AMBIGUOUS_VISIBILITY = 1e-9
#: How far the fitted visibility may exceed twice the fitted offset before
#: a fringe is rejected as unphysical; allows shot noise at the percent level.
UNPHYSICAL_TOL = 0.05


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
    """Cosine-fit quality: RMS residual, fitted offset and visibility, and
    whether the fringe was too flat to determine phase and magnitude split."""

    residual_rms: float
    offset: float
    visibility: float
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

    Fits ``I1(phi)`` by linear least squares on the basis ``{1, cos phi,
    sin phi}``, with one step of iterative refinement.  The fitted offset ``C`` and visibility ``V`` determine the
    magnitudes through ``mag1^2 + mag2^2 = 2C`` and ``2 mag1 mag2 = V``;
    the phase comes from the quadrature coefficients.  A fringe with
    ``V > 2C + UNPHYSICAL_TOL`` is rejected as unphysical.
    """
    phases = fr.phases
    if np.unique(np.round(wrap_phase(phases), 12)).size < 3:
        raise FitError("need at least 3 distinct sweep phases (mod 2 pi)")
    design = np.column_stack(
        [np.ones(phases.size), np.cos(phases), np.sin(phases)]
    )
    coeffs, _, rank, _ = np.linalg.lstsq(design, fr.intensity_port1, rcond=None)
    if rank < 3:
        raise FitError("degenerate phase design: sweep does not span a fringe")
    # One step of iterative refinement on the same design: the magnitude
    # split is sqrt(2C - V), so roundoff d in the fitted 2C - V costs about
    # sqrt(d) / 2 in each magnitude.
    coeffs = coeffs + np.linalg.lstsq(
        design, fr.intensity_port1 - design @ coeffs, rcond=None)[0]
    c0, c1, c2 = (float(c) for c in coeffs)
    residual_rms = float(
        np.sqrt(np.mean((design @ coeffs - fr.intensity_port1) ** 2))
    )
    visibility = 2.0 * float(np.hypot(c1, c2))
    offset = c0
    if offset <= 0.0:
        raise FitError("fitted offset is nonpositive; fringe is unphysical")
    if visibility > 2.0 * offset + UNPHYSICAL_TOL:
        raise FitError(
            f"fitted visibility {visibility:.3g} exceeds the unitarity "
            f"bound 2C = {2.0 * offset:.3g}"
        )
    ambiguous = visibility < AMBIGUOUS_VISIBILITY
    u = float(np.sqrt(2.0 * offset + visibility))
    w = float(np.sqrt(max(2.0 * offset - visibility, 0.0)))
    mag1 = (u + w) / 2.0
    mag2 = (u - w) / 2.0
    relative_phase = 0.0 if ambiguous else wrap_phase(float(np.arctan2(-c2, c1)))
    return RecoveryResult(
        state=RecoveredState(mag1=mag1, mag2=mag2, relative_phase=relative_phase),
        diagnostics=FitDiagnostics(
            residual_rms=residual_rms,
            offset=offset,
            visibility=visibility,
            ambiguous=ambiguous,
        ),
    )


def holographic_report(state: StateVector, cfg: InterferometerConfig,
                       seed: int = 0) -> HolographicReport:
    """Run the sweep, invert the fringe, and compare against ground truth.

    Magnitude errors are taken against the descending-sorted true arm
    magnitudes (matching the recovery's ordering convention); the phase
    error is the wrapped difference of relative phases.

    The fit's model holds only for a splitter with ``conj(H00) H01 = 1/2``
    (within ``TOL_INV``); any other raises ``DomainError``.
    """
    h = cfg.splitter.matrix
    gap = abs(complex(np.conj(h[0, 0]) * h[0, 1]) - 0.5)
    if gap > TOL_INV:
        raise DomainError(
            f"holographic recovery needs the 50/50 splitter, conj(H00)*H01 "
            f"= 1/2; this splitter is {gap:.3e} off, past {TOL_INV:g}"
        )
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
