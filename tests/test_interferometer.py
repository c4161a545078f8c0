import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenschaft.errors import DomainError, FitError, ShapeError
from eigenschaft.interferometer import (
    MAX_CONDITION,
    FringeRecord,
    InterferometerConfig,
    holographic_report,
    recover_state,
    run_interferometer,
    uniform_sweep,
)
from eigenschaft.linalg import max_abs
from eigenschaft.operators import (
    EigenschaftOp,
    H2Params,
    build_h2,
    hadamard,
    wrap_phase,
)
from eigenschaft.states import StateVector

from helpers import exact_bound, exact_fringe_fit, within_exact


def config(n=16, sigma=0.0, splitter=None):
    return InterferometerConfig(
        splitter=splitter or hadamard(),
        sweep_phases=uniform_sweep(n),
        shot_noise_sigma=sigma,
    )


def two_arm_state(mag1, mag2, phase):
    return StateVector(np.array([mag1, mag2 * np.exp(1j * phase)]))


CONDITION_REFUSAL = (r"^near-duplicate sweep phases: fit condition kappa\^2 = \S+ "
                     r"exceeds MAX_CONDITION = " + re.escape(f"{MAX_CONDITION:g}") + "$")


def check_near_duplicate_sweep(phases, power, phase):
    """A noiseless fit over ``phases`` of arms with powers ``power`` and ``1 -
    power`` either meets 1e-8 on both magnitudes and the phase, or is
    refused by the three-phase gate or by the condition gate."""
    cfg = InterferometerConfig(splitter=hadamard(), sweep_phases=phases)
    state = two_arm_state(np.sqrt(power), np.sqrt(1.0 - power), phase)
    try:
        report = holographic_report(state, cfg)
    except FitError as exc:
        if np.unique(np.round(wrap_phase(phases), 12)).size < 3:
            assert str(exc) == "need at least 3 distinct sweep phases (mod 2 pi)"
        else:
            assert re.match(CONDITION_REFUSAL, str(exc)), str(exc)
        return
    assert report.diagnostics.condition <= MAX_CONDITION
    err = report.truth_error
    assert max(err.mag1, err.mag2, err.phase) <= 1e-8, (phases, report)


class TestRunInterferometer:
    def test_single_arm_is_flat(self):
        fr = run_interferometer(StateVector.basis_state(2, 0), config())
        assert np.allclose(fr.intensity_port1, 0.5, atol=1e-12)
        assert np.allclose(fr.intensity_port2, 0.5, atol=1e-12)

    def test_equal_arms_full_visibility_fringe(self):
        fr = run_interferometer(two_arm_state(*(1 / np.sqrt(2),) * 2, 0.0), config(64))
        expected = (1.0 + np.cos(fr.phases)) / 2.0
        assert max_abs(fr.intensity_port1 - expected) <= 1e-12

    def test_third_phase_point(self):
        state = two_arm_state(1 / np.sqrt(2), 1 / np.sqrt(2), np.pi / 3)
        cfg = InterferometerConfig(splitter=hadamard(), sweep_phases=np.array([0.0]))
        fr = run_interferometer(state, cfg)
        assert fr.intensity_port1[0] == pytest.approx(0.75, abs=1e-12)

    def test_fringe_law_closed_form(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            amp = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = StateVector.normalized(amp)
            a, b = state.amplitudes
            fr = run_interferometer(state, config(32))
            expected = 0.5 * (
                1.0
                + 2.0
                * abs(a)
                * abs(b)
                * np.cos(fr.phases + np.angle(b) - np.angle(a))
            )
            assert max_abs(fr.intensity_port1 - expected) <= 1e-12

    def test_lossless_intensity_sum(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            state = StateVector.normalized(
                rng.normal(size=2) + 1j * rng.normal(size=2)
            )
            splitter = build_h2(
                H2Params(
                    gamma_angle=rng.uniform(-np.pi, np.pi),
                    delta_phi=rng.uniform(-np.pi, np.pi),
                )
            )
            fr = run_interferometer(state, config(24, splitter=splitter))
            total = fr.intensity_port1 + fr.intensity_port2
            assert max_abs(total - 1.0) <= 1e-10

    def test_noise_is_seeded_and_clamped(self):
        state = two_arm_state(0.6, 0.8, 1.0)
        cfg = config(32, sigma=0.3)
        fr1 = run_interferometer(state, cfg, rng_seed=9)
        fr2 = run_interferometer(state, cfg, rng_seed=9)
        fr3 = run_interferometer(state, cfg, rng_seed=10)
        assert np.array_equal(fr1.intensity_port1, fr2.intensity_port1)
        assert not np.array_equal(fr1.intensity_port1, fr3.intensity_port1)
        assert np.min(fr1.intensity_port1) >= 0.0
        assert np.min(fr1.intensity_port2) >= 0.0

    def test_negative_seed_with_noise_is_domain_error(self):
        state = two_arm_state(0.6, 0.8, 1.0)
        with pytest.raises(DomainError, match="seed must be a nonnegative"):
            run_interferometer(state, config(8, sigma=0.1), rng_seed=-1)
        with pytest.raises(DomainError, match="seed must be a nonnegative"):
            holographic_report(state, config(8, sigma=0.1), seed=-1)
        # Without noise the seed is never used.
        quiet = run_interferometer(state, config(8), rng_seed=-1)
        assert np.array_equal(quiet.intensity_port1,
                              run_interferometer(state, config(8)).intensity_port1)

    @pytest.mark.parametrize("seed", [1.5, None, "1", 2.0, True])
    def test_non_integer_seed_with_noise_is_domain_error(self, seed):
        state = two_arm_state(0.6, 0.8, 1.0)
        message = f"noise seed must be an integer, got {seed!r}"
        with pytest.raises(DomainError) as exc:
            run_interferometer(state, config(8, sigma=0.1), rng_seed=seed)
        assert str(exc.value) == message
        with pytest.raises(DomainError) as exc:
            holographic_report(state, config(8, sigma=0.1), seed=seed)
        assert str(exc.value) == message
        noisy = run_interferometer(state, config(8, sigma=0.1), rng_seed=np.int64(9))
        assert np.array_equal(noisy.intensity_port1, run_interferometer(
            state, config(8, sigma=0.1), rng_seed=9).intensity_port1)

    def test_rejects_wrong_state_dimension(self):
        with pytest.raises(ShapeError):
            run_interferometer(StateVector.basis_state(3, 0), config())

    def test_config_guards(self):
        with pytest.raises(DomainError):
            InterferometerConfig(splitter=hadamard(), sweep_phases=np.array([]))
        with pytest.raises(DomainError):
            config(sigma=-0.1)
        with pytest.raises(ShapeError):
            InterferometerConfig(
                splitter=EigenschaftOp.from_matrix(np.eye(3)),
                sweep_phases=uniform_sweep(4),
            )

    def test_splitter_beyond_the_bound_is_refused_at_the_door(self):
        """A splitter whose squared outputs would pass ``MAX_MAGNITUDE``
        is no involution, and the constructor refuses it before
        ``run_interferometer`` can form the intensities."""
        with pytest.raises(DomainError) as exc:
            EigenschaftOp(np.diag([1e60, -1e60]))
        assert str(exc.value) == (
            "not an involution: residual 1.000e+120 exceeds 1e-10"
        )


class TestRecoverState:
    def test_equal_arms_noiseless(self):
        result = recover_state(
            run_interferometer(two_arm_state(*(1 / np.sqrt(2),) * 2, 0.0), config(16))
        )
        rec = result.state
        # The magnitude split is ill-conditioned exactly at equal arms
        # (a sqrt of a near-zero difference), hence the 1e-8 gate.
        assert rec.mag1 == pytest.approx(1 / np.sqrt(2), abs=1e-8)
        assert rec.mag2 == pytest.approx(1 / np.sqrt(2), abs=1e-8)
        assert rec.relative_phase == pytest.approx(0.0, abs=1e-12)
        assert result.diagnostics.residual_rms <= 1e-12
        assert not result.diagnostics.ambiguous

    def test_single_arm_flagged_ambiguous(self):
        result = recover_state(
            run_interferometer(StateVector.basis_state(2, 0), config())
        )
        assert result.diagnostics.ambiguous
        assert result.state.relative_phase == 0.0
        assert {round(result.state.mag1, 9), round(result.state.mag2, 9)} == {1.0, 0.0}

    def test_unbalanced_arms_with_phase(self):
        state = StateVector(
            np.array([np.sqrt(0.8), np.sqrt(0.2) * np.exp(-1j * np.pi / 4)])
        )
        rec = recover_state(run_interferometer(state, config(16))).state
        assert rec.mag1**2 == pytest.approx(0.8, abs=1e-9)
        assert rec.mag2**2 == pytest.approx(0.2, abs=1e-9)
        assert rec.relative_phase == pytest.approx(-np.pi / 4, abs=1e-9)

    def test_visibility_bound_noiseless(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            state = StateVector.normalized(
                rng.normal(size=2) + 1j * rng.normal(size=2)
            )
            result = recover_state(run_interferometer(state, config(24)))
            assert result.diagnostics.visibility <= 1.0 + 1e-9

    def test_needs_three_distinct_phases(self):
        state = two_arm_state(0.6, 0.8, 0.3)
        cfg = InterferometerConfig(
            splitter=hadamard(), sweep_phases=np.array([0.1, 0.9])
        )
        with pytest.raises(FitError):
            recover_state(run_interferometer(state, cfg))

    def test_degenerate_sweep_rejected(self):
        cfg = InterferometerConfig(
            splitter=hadamard(),
            sweep_phases=np.array([0.4, 0.4 + 2 * np.pi, 0.4 - 2 * np.pi]),
        )
        fr = run_interferometer(two_arm_state(0.6, 0.8, 0.0), cfg)
        with pytest.raises(FitError):
            recover_state(fr)

    @settings(deadline=None)
    @given(phases=st.lists(
        st.sampled_from([0.0, -0.0, np.pi, -np.pi, 0.3]) | st.floats(-10.0, 10.0),
        min_size=1, max_size=3,
    ).flatmap(lambda bases: st.lists(st.builds(
        lambda base, turns, nudge: base + 2 * np.pi * turns + nudge,
        st.sampled_from(bases),
        st.integers(-3, 3),
        st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 4.9999e-13, 5e-13, -5e-13,
                         5.0001e-13, 1.5e-12, 2.0**-40]),
    ), min_size=1, max_size=6)))
    def test_three_phase_gate_counts_as_unique_does(self, phases):
        """The gate refuses exactly the sweeps whose wrapped phases, rounded
        to 12 decimals, take fewer than 3 distinct values by ``np.unique``:
        signed zeros, whole turns apart and nudges at the rounding edge.
        The example budget is the profile's (tests/conftest.py)."""
        fr = FringeRecord(phases, np.full(len(phases), 0.5), np.full(len(phases), 0.5))
        expected = np.unique(np.round(wrap_phase(np.array(phases)), 12)).size < 3
        try:
            recover_state(fr)
            refused = False
        except FitError as exc:
            refused = str(exc) == "need at least 3 distinct sweep phases (mod 2 pi)"
        assert refused == expected

    @pytest.mark.parametrize("phases", [
        *(uniform_sweep(n) for n in (3, 4, 7, 16, 39)),
        np.array([0.0, 1e-11, 2e-11]),
        np.array([0.3, 0.3 + 1e-9, 0.3 + 2e-9]),
        np.array([0.3, 0.3 + 1e-5, 0.3 + 2e-5, 0.3 + 3e-5]),
    ])
    def test_rank_gate_matches_matrix_rank(self, phases):
        """The fit's condition gate is a rank test: it refuses a sweep
        exactly when ``np.linalg.matrix_rank`` finds the quadrature columns,
        both ports stacked, of rank below 2 at the tolerance ``sigma_max /
        sqrt(MAX_CONDITION)``, and ``condition`` is their ``kappa^2``.  That
        is about 1.5e22 and 1.5e18 for the first two near-duplicate sweeps,
        which are refused, 8.0e9 for the third and 1 for the uniform sweeps,
        which are admitted."""
        port1 = np.column_stack([np.cos(phases), np.sin(phases)])
        block = np.concatenate([port1, -port1])
        sigma = np.linalg.svd(block, compute_uv=False)
        cfg = InterferometerConfig(splitter=hadamard(), sweep_phases=phases)
        fr = run_interferometer(two_arm_state(0.6, 0.8, 0.3), cfg)
        if np.linalg.matrix_rank(block, tol=sigma[0] / np.sqrt(MAX_CONDITION)) < 2:
            with pytest.raises(FitError, match=CONDITION_REFUSAL):
                recover_state(fr)
        else:
            condition = recover_state(fr).diagnostics.condition
            assert condition == pytest.approx((sigma[0] / sigma[1]) ** 2, rel=1e-6)

    @settings(deadline=None)
    @given(n=st.sampled_from([3, 4, 8, 16]), data=st.data(),
           phi0=st.floats(-np.pi, np.pi), spread_exp=st.floats(-12.0, 0.0),
           power=st.floats(0.05, 0.45), swap=st.booleans(),
           phase=st.floats(-np.pi, np.pi))
    def test_near_duplicate_sweep_is_exact_or_refused(self, n, data, phi0, spread_exp,
                                                      power, swap, phase):
        """Sweeps ``phi0 + s * sort(U(0, 1)^N)``, spreads s from 1e-12 to 1:
        each noiseless fit the gate admits meets 1e-8 on both magnitudes
        and the phase, and a refusal names ``kappa^2`` and the bound.  The
        arms differ in power by at least 0.1: at equal arms the split is a
        square root and misses 1e-8 at any ``kappa^2`` well above 1.  Here
        the worst error grows as ``kappa^2`` past 1e10, and reaches 1e-8 near
        ``kappa^2 = 3e11``; ``MAX_CONDITION = 1e10`` leaves a factor of 100."""
        unit = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        phases = phi0 + 10.0 ** spread_exp * np.sort(unit)
        check_near_duplicate_sweep(phases, 1.0 - power if swap else power, phase)

    def test_near_duplicate_scan(self):
        """The same property over 2000 seeded draws: enough of them land near
        the bound, which the example budget of 30 rarely reaches."""
        rng = np.random.default_rng(66)
        for _ in range(2000):
            n = int(rng.choice([3, 4, 8, 16]))
            phases = (rng.uniform(-np.pi, np.pi)
                      + 10.0 ** rng.uniform(-12, 0) * np.sort(rng.uniform(0, 1, n)))
            power = rng.uniform(0.05, 0.45)
            check_near_duplicate_sweep(phases, power if rng.uniform() < 0.5 else 1 - power,
                                       rng.uniform(-np.pi, np.pi))

    @pytest.mark.parametrize("n", [*range(3, 65), 65536])
    def test_uniform_sweep_is_perfectly_conditioned(self, n):
        fr = run_interferometer(two_arm_state(0.6, 0.8, 0.3), config(n))
        assert abs(recover_state(fr).diagnostics.condition - 1.0) <= 1e-12

    def test_unphysical_fringe_rejected(self):
        # A single spike in port 1 over a dark port 2 fits to V = 0.5 with
        # offset C = 0.125: V > 2C + tol.
        fr = FringeRecord(
            phases=uniform_sweep(4),
            intensity_port1=np.array([0.0, 0.0, 1.0, 0.0]),
            intensity_port2=np.zeros(4),
        )
        with pytest.raises(FitError, match="visibility"):
            recover_state(fr)

    def test_dark_fringe_rejected(self):
        zeros = np.zeros(16)
        with pytest.raises(FitError, match="fitted offset is nonpositive"):
            recover_state(FringeRecord(uniform_sweep(16), zeros, zeros))

    def test_inversion_identity(self):
        rng = np.random.default_rng(63)
        count = 0
        while count < 100:
            amp = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = StateVector.normalized(amp)
            a, b = state.amplitudes
            if min(abs(a), abs(b)) < 0.05:
                continue
            count += 1
            rec = recover_state(run_interferometer(state, config(24))).state
            mags = sorted((abs(a), abs(b)), reverse=True)
            assert abs(rec.mag1 - mags[0]) <= 1e-8
            assert abs(rec.mag2 - mags[1]) <= 1e-8
            delta = wrap_phase(float(np.angle(b) - np.angle(a)))
            assert abs(wrap_phase(rec.relative_phase - delta)) <= 1e-8


class TestFitAgainstExact:
    """``recover_state``'s offset and visibility against the exact
    least-squares solution of its stacked fit for the given floats
    (``helpers.exact_fringe_fit``), within ``EXACT_C * N * eps``: ``offset``
    against ``c0``, and ``visibility / 2`` against ``sqrt(c1**2 + c2**2)``
    through exact squares.  Sweeps are uniform or random, states random,
    and half the fringes carry noise of sigma 0.01."""

    @pytest.mark.parametrize("n", [*range(3, 17), 31, 32, 64])
    def test_reported_within_the_exact_bound(self, n):
        rng = np.random.default_rng([n, 7])
        for sweep in (uniform_sweep(n), np.sort(rng.uniform(0.0, 2 * np.pi, n))):
            for sigma in (0.0, 0.01) * 3:
                state = StateVector.normalized(rng.normal(size=2) + 1j * rng.normal(size=2))
                cfg = InterferometerConfig(splitter=hadamard(), sweep_phases=sweep,
                                           shot_noise_sigma=sigma)
                fr = run_interferometer(state, cfg, rng_seed=int(rng.integers(2**31)))
                fit = recover_state(fr).diagnostics
                c0, c1, c2 = exact_fringe_fit(fr.phases, fr.intensity_port1,
                                              fr.intensity_port2)
                assert abs(Fraction(fit.offset) - c0) <= exact_bound(n, 1.0)
                assert within_exact(fit.visibility / 2, c1 * c1 + c2 * c2,
                                    exact_bound(n, 1.0))


class TestHolographicReport:
    def test_noiseless_truth_errors_tiny(self):
        rng = np.random.default_rng(64)
        for _ in range(25):
            mag1 = rng.uniform(0.05, 0.95)
            state = two_arm_state(
                np.sqrt(mag1), np.sqrt(1 - mag1), rng.uniform(-np.pi, np.pi)
            )
            report = holographic_report(state, config(32))
            assert report.truth_error.mag1 <= 1e-8
            assert report.truth_error.mag2 <= 1e-8
            assert report.truth_error.phase <= 1e-8

    def test_near_equal_arms_scan(self):
        """Arms split by ``|a|^2 - |b|^2 = d`` for d = 0 and 25 log-spaced
        values in [1e-10, 1e-6], at every odd sweep size 3..399 with a
        random relative phase.  The fringe holds only ``(|a| - |b|)^2``,
        so roundoff in the fitted ``2C - V`` enters the magnitudes as a
        square root; the bound is the documented 1e-8 all the same."""
        rng = np.random.default_rng(65)
        splits = np.concatenate([[0.0], np.logspace(-10, -6, 25)])
        misses = []
        for n in range(3, 400, 2):
            cfg = config(n)
            for d in splits:
                state = two_arm_state(np.sqrt((1 + d) / 2), np.sqrt((1 - d) / 2),
                                      rng.uniform(-np.pi, np.pi))
                err = holographic_report(state, cfg).truth_error
                if max(err.mag1, err.mag2) > 1e-8:
                    misses.append((n, d, max(err.mag1, err.mag2)))
        assert misses == []

    def test_three_phase_near_equal_arms(self):
        """The one miss of a ten-seed scan of the port-1 fit, 1.0018e-8 at
        N = 3; with both ports fitted it is 5.2e-10."""
        d = 1.4677992676220676e-09
        state = two_arm_state(np.sqrt((1 + d) / 2), np.sqrt((1 - d) / 2),
                              1.8665422699470895)
        err = holographic_report(state, config(3)).truth_error
        assert max(err.mag1, err.mag2) <= 1e-8

    def test_noisy_phase_error_within_regression_bound(self):
        state = two_arm_state(*(1 / np.sqrt(2),) * 2, 0.0)
        report = holographic_report(state, config(64, sigma=0.01), seed=1)
        # Frozen regression level for this seed; hard gate is 0.2 rad.
        assert report.truth_error.phase <= 0.02
        assert report.truth_error.phase <= 0.2

    def test_single_arm_sets_ambiguous_flag(self):
        report = holographic_report(StateVector.basis_state(2, 0), config())
        assert report.diagnostics.ambiguous

    def test_magnitude_ordering_convention(self):
        # True state has the larger magnitude in the second arm.
        state = two_arm_state(np.sqrt(0.2), np.sqrt(0.8), 0.7)
        report = holographic_report(state, config(32))
        assert report.recovered.mag1 == pytest.approx(np.sqrt(0.8), abs=1e-9)
        assert report.recovered.mag2 == pytest.approx(np.sqrt(0.2), abs=1e-9)
        assert report.truth_error.phase <= 1e-8

    @pytest.mark.parametrize("gamma_deg, dphi_deg", [
        (30.0, 0.0), (45.0, 30.0), (-45.0, 0.0), (45.0, 1e-6),
        (np.degrees(np.pi / 4 - 3.2e-5), 0.0),
    ])
    def test_refuses_splitter_outside_the_fit_model(self, gamma_deg, dphi_deg):
        """The refusal reports ``|conj(H00) H01 - 1/2|``, down to the
        splitter ~1e-9 off at ``pi/4 - 3.2e-5``."""
        splitter = build_h2(H2Params(gamma_angle=np.radians(gamma_deg),
                                     delta_phi=np.radians(dphi_deg)))
        h = splitter.matrix
        gap = abs(np.conj(h[0, 0]) * h[0, 1] - 0.5)
        state = two_arm_state(0.6, 0.8, 0.3)
        with pytest.raises(DomainError) as exc:
            holographic_report(state, config(32, splitter=splitter))
        assert str(exc.value) == (
            "holographic recovery needs the 50/50 splitter, conj(H00)*H01 = 1/2: "
            f"residual {gap:.3e} exceeds 1e-10"
        )
        # The fringe itself is still recorded for any splitter.
        run_interferometer(state, config(32, splitter=splitter))

    def test_accepts_negated_hadamard(self):
        """``-H`` also has ``conj(H00) H01 = 1/2`` and the same fringe."""
        splitter = EigenschaftOp.from_matrix(-hadamard().matrix)
        state = two_arm_state(0.6, 0.8, 0.3)
        report = holographic_report(state, config(32, splitter=splitter))
        assert report.truth_error.mag1 <= 1e-8
        assert report.truth_error.mag2 <= 1e-8
        assert report.truth_error.phase <= 1e-8


class TestFringeRecord:
    def test_rejects_negative_intensity(self):
        with pytest.raises(DomainError):
            FringeRecord(
                phases=np.array([0.0, 1.0, 2.0]),
                intensity_port1=np.array([0.5, -0.1, 0.5]),
                intensity_port2=np.array([0.5, 0.5, 0.5]),
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            FringeRecord(
                phases=np.array([0.0, 1.0]),
                intensity_port1=np.array([0.5]),
                intensity_port2=np.array([0.5, 0.5]),
            )


class TestUniformSweep:
    def test_covers_period_without_endpoint(self):
        phases = uniform_sweep(4)
        assert np.allclose(phases, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            uniform_sweep(0)

    @pytest.mark.parametrize("n", [2.5, 4.0, "4", True])
    def test_rejects_non_integer_count(self, n):
        """A fractional count would not close one period (2.5 gave the
        phases 0, 0.8 pi and 1.6 pi)."""
        with pytest.raises(DomainError, match="^sweep size must be an integer"):
            uniform_sweep(n)

    def test_accepts_numpy_integer(self):
        assert np.array_equal(uniform_sweep(np.int64(5)), uniform_sweep(5))

    @pytest.mark.parametrize("n", [2**61, 2**63 - 1, 2**63, 10**30])
    def test_rejects_counts_numpy_cannot_hold(self, n):
        """2**61 and 10**30 raised numpy's ValueError, and 2**63 - 1 and
        2**63 gave an empty sweep.  numpy refuses each of these without
        allocating; a count from about 1e8 to 2**58 would really be
        allocated, so none is tested."""
        with pytest.raises(DomainError, match=f"^sweep size {n} is more phases"):
            uniform_sweep(n)
