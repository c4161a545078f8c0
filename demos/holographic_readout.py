"""Amplitude and phase from one fringe sweep.

A 50/50 splitter interferes the two components of a state while a
controllable phase sweeps the second arm.  The two port intensities trace
I1,2(phi) = 1/2 +- |a||b| cos(phi + delta), so one three-coefficient
cosine fit to both ports recovers the magnitude pair and the relative
phase delta simultaneously.
The splitter participates in the detection without collapsing anything:
the full complex description of the state survives into the record.
"""

import numpy as np

from eigenschaft import (
    InterferometerConfig,
    StateVector,
    hadamard,
    holographic_report,
    recover_state,
    run_interferometer,
    uniform_sweep,
)

state = StateVector(np.array([np.sqrt(0.7), np.sqrt(0.3) * np.exp(1j * 0.9)]))
print("input state: |a|^2 = 0.7, |b|^2 = 0.3, relative phase = +0.900 rad")

cfg = InterferometerConfig(splitter=hadamard(), sweep_phases=uniform_sweep(24))
fringe = run_interferometer(state, cfg)

print("\nfringe (ASCII, port 1):")
for phi, i1 in zip(fringe.phases, fringe.intensity_port1):
    bar = "#" * int(round(i1 * 50))
    print(f"  phi = {phi:5.2f}  I1 = {i1:.4f}  {bar}")

result = recover_state(fringe)
rec = result.state
print("\nrecovered from the fit:")
print(f"  mag1^2 = {rec.mag1 ** 2:.12f} (true 0.7)")
print(f"  mag2^2 = {rec.mag2 ** 2:.12f} (true 0.3)")
print(f"  relative phase = {rec.relative_phase:+.12f} (true +0.9)")
print(f"  visibility = {result.diagnostics.visibility:.6f} "
      f"(= 2 |a||b| = {2 * np.sqrt(0.7 * 0.3):.6f})")

print("\nnoise robustness (sigma on intensities, 64 sweep points):")
for sigma in (0.0, 0.005, 0.02, 0.05):
    noisy_cfg = InterferometerConfig(
        splitter=hadamard(),
        sweep_phases=uniform_sweep(64),
        shot_noise_sigma=sigma,
    )
    rep = holographic_report(state, noisy_cfg, seed=11)
    print(f"  sigma = {sigma:5.3f}: phase error = {rep.truth_error.phase:.5f} rad, "
          f"mag1 error = {rep.truth_error.mag1:.5f}")

print("\nsingle-arm input has no fringe and is flagged:")
rep = holographic_report(StateVector.basis_state(2, 0), cfg)
print(f"  ambiguous = {rep.diagnostics.ambiguous}, "
      f"visibility = {rep.diagnostics.visibility:.2e}")
