import numpy as np
import pytest

from eigenschaft.dynamics import TwoLevelSystem, beat_trace, evolve_h2
from eigenschaft.errors import DomainError, ShapeError
from eigenschaft.linalg import (
    hermiticity_residual,
    involution_residual,
    max_abs,
)
from eigenschaft.operators import (
    EigenschaftOp,
    H2Params,
    build_h2,
    h2_elements,
    hadamard,
    wrap_phase,
)
from eigenschaft.serialize import beat_trace_csv


def system(detuning, op=None):
    return TwoLevelSystem(omega1=detuning, omega2=0.0, h2=op or hadamard())


class TestEvolveH2:
    def test_zero_detuning_is_identity_map(self):
        sys2 = TwoLevelSystem(omega1=3.7, omega2=3.7, h2=hadamard())
        out = evolve_h2(sys2, 12.3)
        assert np.array_equal(out.matrix, sys2.h2.matrix)

    def test_full_period_returns_home(self):
        out = evolve_h2(system(2 * np.pi), 1.0)
        assert max_abs(out.matrix - hadamard().matrix) <= 1e-15

    def test_quarter_turn_quadrature(self):
        out = evolve_h2(system(np.pi), 0.5)
        r = 1 / np.sqrt(2)
        expected = np.array([[r, 1j * r], [-1j * r, -r]])
        assert max_abs(out.matrix - expected) <= 1e-15

    def test_preserves_structure_randomly(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            op = build_h2(
                H2Params(
                    gamma_angle=rng.uniform(-np.pi, np.pi),
                    delta_phi=rng.uniform(-np.pi, np.pi),
                )
            )
            sys2 = TwoLevelSystem(
                omega1=rng.uniform(-5, 5), omega2=rng.uniform(-5, 5), h2=op
            )
            out = evolve_h2(sys2, rng.uniform(-10, 10))
            assert involution_residual(out.matrix) <= 1e-12
            assert hermiticity_residual(out.matrix) <= 1e-12

    def test_phase_additivity(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            sys2 = system(rng.uniform(-4, 4))
            t1, t2 = rng.uniform(-3, 3, size=2)
            direct = evolve_h2(sys2, t1 + t2)
            staged = evolve_h2(
                TwoLevelSystem(sys2.omega1, sys2.omega2, evolve_h2(sys2, t1)), t2
            )
            assert max_abs(direct.matrix - staged.matrix) <= 1e-12

    def test_diagonal_is_time_independent(self):
        sys2 = system(1.7)
        alpha0 = h2_elements(sys2.h2).alpha
        for t in np.linspace(-5, 5, 11):
            assert h2_elements(evolve_h2(sys2, t)).alpha == alpha0

    def test_rejects_wrong_dimension(self):
        big = EigenschaftOp.from_matrix(np.eye(3))
        with pytest.raises(ShapeError):
            TwoLevelSystem(omega1=1.0, omega2=0.0, h2=big)

    def test_rejects_nonfinite_time(self):
        with pytest.raises(DomainError):
            evolve_h2(system(1.0), np.inf)


class TestBeatTrace:
    def test_linear_winding(self):
        base = h2_elements(hadamard()).delta_phi
        samples = beat_trace(system(1.0), [0.0, np.pi])
        assert samples[0].delta_phi == pytest.approx(base)
        assert samples[1].delta_phi == pytest.approx(wrap_phase(base + np.pi))

    def test_zero_detuning_constant(self):
        samples = beat_trace(system(0.0), np.linspace(0, 9, 10))
        phases = {round(s.delta_phi, 15) for s in samples}
        assert len(phases) == 1

    def test_detuning_two_quarter_points(self):
        samples = beat_trace(system(2.0), [0.0, np.pi / 4, np.pi / 2])
        got = [s.delta_phi for s in samples]
        assert got[0] == pytest.approx(0.0)
        assert got[1] == pytest.approx(np.pi / 2)
        assert got[2] == pytest.approx(np.pi)

    def test_slope_matches_detuning(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            detuning = rng.uniform(-3.0, 3.0)
            sys2 = TwoLevelSystem(
                omega1=detuning + 0.5, omega2=0.5, h2=hadamard()
            )
            # Small steps avoid wrapping, making the slope directly readable.
            dt = 0.01
            samples = beat_trace(sys2, [0.0, dt])
            slope = (samples[1].delta_phi - samples[0].delta_phi) / dt
            assert slope == pytest.approx(detuning, abs=1e-12)

    def test_rejects_nonfinite_samples(self):
        with pytest.raises(DomainError):
            beat_trace(system(1.0), [0.0, np.nan])

    def test_csv_bytes_match_per_sample_formula(self):
        rng = np.random.default_rng(53)
        op = build_h2(H2Params(gamma_angle=0.7, delta_phi=-2.1))
        sys2 = TwoLevelSystem(omega1=17.3, omega2=-4.9, h2=op)
        times = np.concatenate([rng.uniform(-1e3, 1e3, 2500),
                                rng.normal(0.0, 1.0, 2500)])
        base = h2_elements(op).delta_phi
        expected = "t,delta_phi\n" + "".join(
            f"{float(t)!r},{wrap_phase(base + sys2.detuning * t)!r}\n"
            for t in times
        )
        assert beat_trace_csv(beat_trace(sys2, times)) == expected

    def test_empty_samples(self):
        assert beat_trace(system(1.0), []) == []

    @pytest.mark.parametrize("samples, times", [
        (1.0, [1.0]),
        (5, [5.0]),
        ([[0.0, 1.0]], [0.0, 1.0]),
        (np.array([0.0, 1.0]), [0.0, 1.0]),
        ((t for t in (0.0, 1.0)), [0.0, 1.0]),
    ], ids=["float", "int", "nested", "array", "generator"])
    def test_samples_read_as_sweep_phases(self, samples, times):
        """Samples are flattened to one axis of floats, as sweep phases
        are: a number is one sample, and every sample is a float."""
        trace = beat_trace(system(1.0), samples)
        assert [s.t for s in trace] == times
        assert all(type(s.t) is float and type(s.delta_phi) is float
                   for s in trace)
        assert beat_trace_csv(trace) == "t,delta_phi\n" + "".join(
            f"{t!r},{wrap_phase(t)!r}\n" for t in times)

    def test_refuses_none(self):
        with pytest.raises(DomainError, match="^time samples must be numeric$"):
            beat_trace(system(1.0), None)
