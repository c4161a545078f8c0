"""Two-level time evolution of a dimension-2 involution.

With level frequencies ``omega1, omega2`` and the overall phase dropped,
the diagonal of the operator is constant while the upper off-diagonal
winds as ``exp(+i (omega1 - omega2) t)``.  Only the relative phase moves,
so the operator stays a Hermitian involution at every instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ShapeError
from .linalg import as_real, as_scalars, freeze_fields
from .operators import EigenschaftOp, h2_elements, wrap_phase


@dataclass(frozen=True)
class TwoLevelSystem:
    """A dimension-2 involution with its two level frequencies (rad/time)."""

    omega1: float
    omega2: float
    h2: EigenschaftOp

    def __post_init__(self):
        omega1, omega2 = as_scalars((self.omega1, self.omega2), "frequencies")
        if self.h2.dim != 2:
            raise ShapeError("two-level evolution needs a dimension-2 operator")
        freeze_fields(self, omega1=omega1, omega2=omega2)

    @property
    def detuning(self) -> float:
        return self.omega1 - self.omega2


class BeatSample(NamedTuple):
    t: float
    delta_phi: float


def evolve_h2(sys: TwoLevelSystem, t: float) -> EigenschaftOp:
    """Advance the off-diagonal phase by ``(omega1 - omega2) * t``.

    The diagonal (and with it the spectrum) is unchanged; the off-diagonal
    magnitude is preserved, so the result is again a valid involution.
    """
    (t,) = as_scalars((t,), "time")
    m = np.array(sys.h2.matrix, dtype=complex)
    m[0, 1] = m[0, 1] * np.exp(1j * sys.detuning * t)
    m[1, 0] = np.conj(m[0, 1])
    return EigenschaftOp.from_matrix(m)


def beat_trace(sys: TwoLevelSystem, t_samples: Iterable[float]) -> list[BeatSample]:
    """Relative phase versus time, wrapped to ``(-pi, pi]``.

    The phase winds linearly at the detuning frequency from the operator's
    initial off-diagonal phase.  The samples, an iterator read out first,
    are flattened to one axis as sweep phases are: a number is one sample.
    """
    if isinstance(t_samples, Iterator):
        t_samples = list(t_samples)
    times = as_real(t_samples, "time samples").reshape(-1)
    phases = wrap_phase(h2_elements(sys.h2).delta_phi + sys.detuning * times)
    return list(map(BeatSample, times.tolist(), phases.tolist()))
