import argparse
import contextlib
import errno
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eigenschaft import cli, serialize
from eigenschaft.cli import main
from eigenschaft.errors import DomainError
from eigenschaft.interferometer import (
    InterferometerConfig,
    run_interferometer,
    uniform_sweep,
)
from eigenschaft.linalg import max_abs
from eigenschaft.operators import (
    DiagSpec,
    EigenschaftOp,
    H2Params,
    build_from_diag,
    build_h2,
    build_kron_family,
    hadamard,
    validate,
)
from eigenschaft.serialize import (
    dumps,
    fringe_csv,
    matrix_from_dict,
    matrix_to_dict,
    op_to_dict,
    state_from_dict,
    state_to_dict,
)
from eigenschaft.states import StateVector

from helpers import (
    csv_reference,
    random_hermitian,
    random_involution,
    sylvester_hadamard,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

HADAMARD_OP = str(DATA / "hadamard_op.json")
DIAG_OP = str(DATA / "diag_op.json")
EQUAL_STATE = str(DATA / "equal_state.json")
E1_STATE = str(DATA / "e1_state.json")
RHO_TILDE = str(DATA / "rho_tilde.json")
STD3_PROJECTORS = str(DATA / "std3_projectors.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


class TestConstruct:
    def test_h2_golden(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "h2", "--gamma", "45", "--dphi", "0")
        assert code == 0
        assert out == golden("construct_h2_hadamard.json")
        payload = json.loads(out)
        m = matrix_from_dict(payload)
        assert max_abs(m - np.array([[1, 1], [1, -1]]) / np.sqrt(2)) <= 1e-15
        assert payload["trace_class"] == 0

    def test_diag3_golden(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "construct", "diag", "--dim", "3",
            "--alphas", "0.333333,0.333333,0.333334",
            "--sign", "+1", "--phases", "0,0",
        )
        assert code == 0
        assert out == golden("construct_diag3.json")
        m = matrix_from_dict(json.loads(out))
        assert max_abs(m @ m - np.eye(3)) <= 1e-10

    def test_diag_alpha_bound_violation(self, capsys):
        code, out, err = run_cli(
            capsys,
            "construct", "diag", "--dim", "3",
            "--alphas", "2,0,-1", "--sign", "+1", "--phases", "0,0",
        )
        assert code == 1
        assert out == ""
        assert "|alpha_1| <= 1" in err

    def test_flip_standard_basis(self, capsys, tmp_path):
        ps_file = tmp_path / "ps.json"
        eye = np.eye(3)
        ps_file.write_text(json.dumps({
            "dim": 3,
            "projectors": [
                {"dim": 3, "entries": [[float(eye[i, r] * eye[i, c]), 0.0]
                                       for r in range(3) for c in range(3)]}
                for i in range(3)
            ],
        }))
        code, out, _ = run_cli(
            capsys, "construct", "flip",
            "--projectors", str(ps_file), "--signs=-1,1,1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trace_class"] == 1
        m = matrix_from_dict(payload)
        assert max_abs(m - np.diag([-1.0, 1.0, 1.0])) == 0.0

    def test_kron_family_and_member(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "kron", "--a", HADAMARD_OP, "--b", DIAG_OP
        )
        assert code == 0
        members = json.loads(out)["members"]
        assert len(members) == 3
        assert all(item["trace_class"] == 0 for item in members)
        code, single, _ = run_cli(
            capsys, "construct", "kron",
            "--a", HADAMARD_OP, "--b", DIAG_OP, "--member", "ab",
        )
        assert code == 0
        assert json.loads(single) == members[2]

    def test_kron_family_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "kron", "--a", HADAMARD_OP, "--b", HADAMARD_OP
        )
        assert code == 0
        assert out == golden("construct_kron.json")

    def test_byte_stable_output(self, capsys):
        _, first, _ = run_cli(capsys, "construct", "h2", "--gamma", "30", "--dphi", "45")
        _, second, _ = run_cli(capsys, "construct", "h2", "--gamma", "30", "--dphi", "45")
        assert first == second


#: Relation residual keys of the validation report, in order, per input.
RELATION_KEYS = {
    "dim2-hadamard": ["balance", "unit_norm_1", "unit_norm_2"],
    "dim3-branch": ["mag_12", "mag_13", "mag_23", "closure_23"],
    "dim4-branch": ["mag_12", "mag_13", "mag_14", "mag_23", "mag_24", "mag_34",
                    "closure_23", "closure_24", "closure_34"],
    "dim4-traceless": [],
    "dim5": [],
}


def _validate_inputs() -> dict:
    rng = np.random.default_rng(11)
    dim3 = build_from_diag(DiagSpec(dim=3, alphas=(0.2, 0.3, 0.5), trace_sign=1,
                                    phases=(0.8, -0.4)))
    dim4 = build_from_diag(DiagSpec(dim=4, alphas=(-0.2, -0.3, -0.6, -0.9),
                                    trace_sign=-1, phases=(0.5, -1.0, 2.0)))
    traceless = build_kron_family(hadamard(), hadamard())[2]
    return {
        "dim2-hadamard": hadamard().matrix,
        "dim3-branch": dim3.matrix,
        "dim4-branch": dim4.matrix + 1e-3 * random_hermitian(4, rng),
        "dim4-traceless": traceless.matrix,
        "dim5": random_involution(5, rng, trace_class=3),
    }


def _near_hadamard(tmp_path) -> str:
    """A Hadamard file with both off-diagonals moved by 1e-7: Hermitian, and
    about 1.4e-7 from an involution."""
    m = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    m[0, 1] += 1e-7
    m[1, 0] += 1e-7
    f = tmp_path / "near.json"
    f.write_text(json.dumps(matrix_to_dict(m), default=np.ndarray.tolist))
    return str(f)


class TestValidate:
    def test_report_golden(self, capsys):
        code, out, _ = run_cli(capsys, "validate", HADAMARD_OP)
        assert code == 0
        assert out == golden("validate_hadamard.json")

    @pytest.mark.parametrize("name", list(RELATION_KEYS))
    def test_report_schema(self, capsys, tmp_path, name):
        # Exact key order, JSON types and values of the report.
        f = tmp_path / "m.json"
        f.write_text(json.dumps(matrix_to_dict(_validate_inputs()[name]),
                                default=np.ndarray.tolist))
        code, out, _ = run_cli(capsys, "validate", str(f))
        assert code == 0
        report = validate(matrix_from_dict(json.loads(f.read_text())))
        expected = [
            ("dim", int, report.dim),
            ("hermiticity_residual", float, report.hermiticity_residual),
            ("unitarity_residual", float, report.unitarity_residual),
            ("involution_residual", float, report.involution_residual),
            ("trace_re", float, report.trace.real),
            ("trace_im", float, report.trace.imag),
            ("trace_class", int, report.trace_class),
            ("trace_class_distance", float, report.trace_class_distance),
            ("trace_class_suspect", bool, report.trace_class_suspect),
        ] + [(key, float, report.relation_residuals[key])
             for key in RELATION_KEYS[name]]
        got = [(key, type(value), value) for key, value in json.loads(out).items()]
        assert got == expected

    def test_non_involution_reports_but_exits_zero(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({
            "dim": 2,
            "entries": [[1.0, 0.0], [0.3, 0.0], [0.3, 0.0], [0.5, 0.0]],
        }))
        code, out, _ = run_cli(capsys, "validate", str(f))
        assert code == 0
        assert json.loads(out)["involution_residual"] > 0.1

    def test_strict_failure(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({
            "dim": 2,
            "entries": [[1.0, 0.0], [0.3, 0.0], [0.3, 0.0], [0.5, 0.0]],
        }))
        code, out, err = run_cli(capsys, "validate", str(f), "--strict")
        assert code == 1
        assert "strict" in err
        assert json.loads(out)["involution_residual"] > 0.1

    def test_strict_pass(self, capsys):
        code, _, _ = run_cli(capsys, "validate", HADAMARD_OP, "--strict")
        assert code == 0

    def test_strict_refuses_near_involution(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "validate", _near_hadamard(tmp_path),
                                 "--strict")
        assert code == 1
        assert json.loads(out)["involution_residual"] > 1e-10
        assert err == ("strict gate failed: not an involution: residual "
                       "1.414e-07 exceeds 1e-10\n")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 8), anti=st.booleans(),
           exponent=st.floats(-12.0, -6.0), seed=st.integers(0, 2**32 - 1))
    def test_strict_agrees_with_the_operator_door(self, capsys, tmp_path, n, anti,
                                                  exponent, seed):
        """An involution moved by a Hermitian or anti-Hermitian perturbation
        of size 1e-12 to 1e-6: --strict exits 1 exactly when EigenschaftOp
        refuses it, with the door's message, after the unchanged report."""
        rng = np.random.default_rng(seed)
        d = random_hermitian(n, rng)
        d = (1j if anti else 1.0) * d / max_abs(d)
        m = random_involution(n, rng) + 10.0 ** exponent * d
        path = tmp_path / "m.json"
        path.write_text(dumps(matrix_to_dict(m)))
        _, report, _ = run_cli(capsys, "validate", str(path))
        code, out, err = run_cli(capsys, "validate", str(path), "--strict")
        assert out == report
        try:
            EigenschaftOp(m)
        except DomainError as exc:
            assert (code, err) == (1, f"strict gate failed: {exc}\n")
        else:
            assert (code, err) == (0, "")

    @pytest.mark.parametrize("m, message", [
        (np.diag([1.0, -1.0] * 32 + [1.0]), "dimension 65 exceeds MAX_DIM = 64"),
        (sylvester_hadamard(64) / 8.0 + 3.92e-10 * np.eye(64),
         "trace (2.5087"),
    ], ids=["n65-involution", "n64-trace-witness"])
    def test_strict_names_the_cap_and_the_trace_gate(self, capsys, tmp_path, m,
                                                     message):
        """Past the dimension cap, and at n = 64 where only the trace gate
        refuses, --strict still prints the report and exits 1 with the
        gate's message."""
        path = tmp_path / "m.json"
        path.write_text(dumps(matrix_to_dict(m)))
        _, report, _ = run_cli(capsys, "validate", str(path))
        code, out, err = run_cli(capsys, "validate", str(path), "--strict")
        assert (code, out) == (1, report)
        assert err.startswith(f"strict gate failed: {message}")

    def test_strict_witness_is_reported_suspect(self, capsys, tmp_path):
        """The n = 64 witness the trace gate alone refuses is flagged in the
        report that --strict prints before its refusal."""
        path = tmp_path / "m.json"
        path.write_text(dumps(matrix_to_dict(
            sylvester_hadamard(64) / 8.0 + 3.92e-10 * np.eye(64))))
        code, out, err = run_cli(capsys, "validate", str(path), "--strict")
        assert code == 1
        assert json.loads(out)["trace_class_suspect"] is True
        assert err.startswith("strict gate failed: trace")

    def test_env_tolerance_does_not_loosen_projector_gate(self, capsys, tmp_path,
                                                           monkeypatch):
        # EIGENSCHAFT_TOL is not read: the operator, whose eigenvalues sit
        # about 7e-8 from +-1, is refused at admission.
        monkeypatch.setenv("EIGENSCHAFT_TOL", "1e-3")
        code, out, err = run_cli(capsys, "convert", "--op", _near_hadamard(tmp_path))
        assert code == 1
        assert out == ""
        assert err == "error: not an involution: residual 1.414e-07 exceeds 1e-10\n"

    def test_env_tolerance_does_not_admit_short_eigenspace(self, capsys, tmp_path,
                                                           monkeypatch):
        # diag(-1, -1, 3) has trace class 1, but its +1 eigenspace is one
        # state short; EIGENSCHAFT_TOL=10 once admitted it.
        f = tmp_path / "short.json"
        f.write_text(json.dumps({
            "dim": 3,
            "entries": [[float(x), 0.0] for x in np.diag([-1.0, -1.0, 3.0]).ravel()],
        }))
        monkeypatch.setenv("EIGENSCHAFT_TOL", "10")
        code, out, err = run_cli(capsys, "convert", "--op", str(f))
        assert code == 1
        assert out == ""
        assert err == "error: not an involution: residual 8.000e+00 exceeds 1e-10\n"

    @pytest.mark.parametrize("value", ["1e-3", "10", "banana"])
    @pytest.mark.parametrize("argv", [
        ["validate", "--strict"],
        ["convert", "--op"],
        ["simulate", "--state", EQUAL_STATE, "--phases", "16", "--fringes",
         "--splitter"],
    ], ids=["validate-strict", "convert", "simulate-fringes"])
    @pytest.mark.parametrize("source", ["near", HADAMARD_OP, DIAG_OP],
                             ids=["near-hadamard", "hadamard", "diag3"])
    def test_env_tolerance_changes_nothing(self, capsys, tmp_path, monkeypatch,
                                           value, argv, source):
        path = _near_hadamard(tmp_path) if source == "near" else source
        unset = run_cli(capsys, *argv, path)
        monkeypatch.setenv("EIGENSCHAFT_TOL", value)
        assert run_cli(capsys, *argv, path) == unset

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        code, _, err = run_cli(capsys, "validate", str(f))
        assert code == 2
        assert "JSON" in err

    def test_wrong_entry_count_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "short.json"
        f.write_text(json.dumps({"dim": 2, "entries": [[1.0, 0.0]]}))
        code, _, err = run_cli(capsys, "validate", str(f))
        assert code == 2
        assert "entries" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "no/such/file.json")
        assert code == 2


class TestConvert:
    def test_operator_to_projectors(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--op", HADAMARD_OP)
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload["signs"]) == [-1, 1]
        total = sum(matrix_from_dict(p) for p in payload["projectors"])
        assert max_abs(total - np.eye(2)) <= 1e-12

    def test_projectors_to_family(self, capsys, tmp_path):
        _, ps_text, _ = run_cli(capsys, "convert", "--op", HADAMARD_OP)
        ps_file = tmp_path / "ps.json"
        ps_file.write_text(ps_text)
        code, out, _ = run_cli(
            capsys, "convert", "--projectors", str(ps_file), "--family", "flip"
        )
        assert code == 0
        members = json.loads(out)["members"]
        assert len(members) == 2
        total = sum(matrix_from_dict(m) for m in members)
        assert max_abs(total - 0.0) <= 1e-12  # dim 2: sum of I-2P_i is zero

    def test_standard_basis_flip_family_golden(self, capsys):
        code, out, _ = run_cli(capsys, "convert", "--projectors", STD3_PROJECTORS)
        assert code == 0
        assert out == golden("convert_flip_std3.json")
        members = [matrix_from_dict(m) for m in json.loads(out)["members"]]
        for i, m in enumerate(members):
            expected = np.eye(3)
            expected[i, i] = -1.0
            assert max_abs(m - expected) == 0.0

    def test_operator_past_max_dim_is_refused(self, capsys, tmp_path):
        path = tmp_path / "op65.json"
        path.write_text(dumps(matrix_to_dict(np.diag([1.0, -1.0] * 32 + [1.0]))))
        assert run_cli(capsys, "convert", "--op", str(path)) == (
            1, "", "error: dimension 65 exceeds MAX_DIM = 64\n")

    @pytest.mark.parametrize("family", ["flip", "traceless"])
    def test_family_with_op_is_a_usage_error(self, capsys, family):
        """``--family`` names the family of ``--projectors``; with ``--op``
        it is refused, not ignored, whichever kind it names."""
        assert run_cli(capsys, "convert", "--op", HADAMARD_OP, "--family", family) == (
            2, "", "error: argument --family: not allowed with argument --op\n")

    def test_requires_exactly_one_input(self, capsys):
        """The parser takes exactly one of ``--op`` and ``--projectors``."""
        for argv, message in [
            ((), "one of the arguments --op --projectors is required"),
            (("--op", HADAMARD_OP, "--projectors", STD3_PROJECTORS),
             "argument --projectors: not allowed with argument --op"),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(["convert", *argv])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(f"error: {message}\n")
            assert "(--op OP | --projectors PROJECTORS)" in captured.err


class TestDecomposeClassify:
    def test_decompose_matches_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--op", HADAMARD_OP, "--state", E1_STATE
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean"] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert payload["dispersion"] == pytest.approx(0.5, abs=1e-12)
        amp = payload["residual_state"]["amplitudes"]
        assert amp[0] == [0.0, 0.0] and amp[1][0] == pytest.approx(1.0)

    def test_decompose_eigenvector_has_null_residual(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--op", DIAG_OP, "--state", E1_STATE
        )
        assert code == 0
        assert json.loads(out)["residual_state"] is None

    def test_decompose_eigenvector_at_scale_100(self, capsys, tmp_path):
        op = tmp_path / "op.json"
        op.write_text('{"dim": 1, "entries": [[100.0, 0.0]]}')
        state = tmp_path / "state.json"
        state.write_text('{"dim": 1, "amplitudes": '
                         '[[0.999949665414829, 0.01003327647239439]]}')
        code, out, err = run_cli(
            capsys, "decompose", "--op", str(op), "--state", str(state)
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["mean"] == pytest.approx(100.0, rel=1e-14)
        assert payload["residual_state"] is None

    def test_classify_mixture(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--rho", RHO_TILDE)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "mixture"
        assert payload["purity"] == pytest.approx(0.5)
        assert payload["rho_dispersion"] == pytest.approx(-0.5)

    def test_classify_rejects_bad_density(self, capsys, tmp_path):
        f = tmp_path / "rho.json"
        f.write_text(json.dumps({
            "dim": 2,
            "entries": [[0.7, 0.0], [0.0, 0.0], [0.0, 0.0], [0.7, 0.0]],
        }))
        code, _, err = run_cli(capsys, "classify", "--rho", str(f))
        assert code == 1
        assert "trace" in err


class TestEvolve:
    def test_single_time_outputs_operator(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--op", HADAMARD_OP,
            "--omega1", "3.141592653589793", "--omega2", "0", "--time", "0.5",
        )
        assert code == 0
        m = matrix_from_dict(json.loads(out))
        r = 1 / np.sqrt(2)
        assert max_abs(m - np.array([[r, 1j * r], [-1j * r, -r]])) <= 1e-12

    def test_times_outputs_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--op", HADAMARD_OP,
            "--omega1", "2", "--omega2", "0",
            "--times", "0,0.7853981633974483,1.5707963267948966",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,delta_phi"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values[0] == pytest.approx(0.0)
        assert values[1] == pytest.approx(np.pi / 2)
        assert values[2] == pytest.approx(np.pi)

    def test_time_and_times_mutually_exclusive(self, capsys):
        """The parser takes exactly one of ``--time`` and ``--times``."""
        for times, message in [
            ((), "one of the arguments --time --times is required"),
            (("--time", "1", "--times", "0,1"),
             "argument --times: not allowed with argument --time"),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(["evolve", "--op", HADAMARD_OP,
                      "--omega1", "1", "--omega2", "0", *times])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.endswith(f"error: {message}\n")
            assert "(--time TIME | --times TIMES)" in captured.err


class TestSimulate:
    def test_noiseless_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--state", EQUAL_STATE,
            "--phases", "16", "--noise", "0", "--seed", "1",
        )
        assert code == 0
        assert out == golden("simulate_noiseless.json")
        payload = json.loads(out)
        assert abs(payload["recovered"]["relative_phase"]) <= 1e-8
        assert payload["truth_error"]["phase"] <= 1e-8

    def test_fringe_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--state", EQUAL_STATE,
            "--phases", "8", "--fringes",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi,I1,I2"
        assert len(lines) == 9
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[1] == pytest.approx(1.0, abs=1e-9)  # constructive at phi=0

    @pytest.mark.parametrize("phases", ["3", "65536"])
    def test_uniform_sweep_fits_with_condition_1(self, capsys, phases):
        """The smallest uniform sweep the fit admits and the largest the
        benchmark serves: the two-port design is perfectly conditioned and
        the truth is met."""
        code, out, err = run_cli(capsys, "simulate", "--state", EQUAL_STATE,
                                 "--phases", phases)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert abs(report["diagnostics"]["condition"] - 1.0) <= 1e-12
        assert max(report["truth_error"].values()) <= 1e-8

    def test_noisy_run_reproducible(self, capsys):
        args = (
            "simulate", "--state", EQUAL_STATE,
            "--phases", "64", "--noise", "0.01", "--seed", "7",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert json.loads(first)["truth_error"]["phase"] <= 0.2


    @pytest.mark.parametrize("noise", ["0", "0.1"])
    @pytest.mark.parametrize("mode", [[], ["--fringes"]], ids=["report", "fringes"])
    def test_negative_seed_is_usage_error(self, capsys, noise, mode):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--state", EQUAL_STATE, "--phases", "16",
                  "--noise", noise, "--seed", "-1", *mode])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "error: argument --seed: seed must be a nonnegative integer, got '-1'\n"
        )

    @pytest.mark.parametrize("count", ["9223372036854775808", str(10**30)])
    def test_sweep_count_numpy_cannot_hold(self, capsys, count):
        code, out, err = run_cli(capsys, "simulate", "--state", EQUAL_STATE,
                                 "--phases", count)
        assert code == 1
        assert out == ""
        assert err == (f"error: sweep size {count} is more phases than a numpy "
                       "array can hold\n")

    def test_sweep_too_large_to_allocate(self):
        """A count ``uniform_sweep`` admits but memory cannot hold is one
        ``error:`` line, not a traceback.  The child's address space is
        capped at 3 GB, so the 8 TB sweep is never actually attempted."""
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

        proc = subprocess.run(
            [sys.executable, "-m", "eigenschaft", "simulate", "--state", EQUAL_STATE,
             "--phases", "1000000000000"],
            capture_output=True, text=True, preexec_fn=cap_address_space,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: out of memory: ")
        assert proc.stderr.count("\n") == 1

    def test_non_integer_seed_keeps_argparse_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--state", EQUAL_STATE, "--phases", "8", "--seed", "1.5"])
        assert exc.value.code == 2
        assert "argument --seed: invalid int value: '1.5'" in capsys.readouterr().err

    def test_splitter_outside_the_fit_model(self, capsys, tmp_path):
        """A report needs the 50/50 splitter; fringes take any splitter."""
        splitter = build_h2(H2Params(gamma_angle=math.radians(30.0), delta_phi=0.0))
        path = tmp_path / "splitter.json"
        path.write_text(dumps(op_to_dict(splitter)))
        args = ("simulate", "--state", EQUAL_STATE, "--phases", "16",
                "--splitter", str(path))
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert err == ("error: holographic recovery needs the 50/50 splitter, "
                       "conj(H00)*H01 = 1/2; this splitter is 6.699e-02 off, "
                       "past 1e-10\n")

        code, out, _ = run_cli(capsys, *args, "--fringes")
        assert code == 0
        cfg = InterferometerConfig(splitter=splitter, sweep_phases=uniform_sweep(16))
        state = state_from_dict(json.loads(Path(EQUAL_STATE).read_text()))
        assert out == fringe_csv(run_interferometer(state, cfg))

    @pytest.mark.parametrize("arms", ["equal", "near", "random", "equal-file"])
    def test_largest_sweep_matches_the_per_row_reference(self, capsys, tmp_path,
                                                          arms):
        """A 65 536-phase fringe, the largest the benchmark serves, is the
        per-row CSV text of the library's fringe, byte for byte.  The file
        case is ``equal_state.json``, whose amplitudes 0.7071067811865475
        are one ulp below ``sqrt(0.5)``."""
        if arms == "equal-file":
            path = Path(EQUAL_STATE)
            state = state_from_dict(json.loads(path.read_text()))
        else:
            rng = np.random.default_rng(65536)
            p = {"equal": 0.5, "near": (1.0 + 1e-6) / 2.0, "random": 0.3}[arms]
            phases = [0.0, 0.0] if arms == "equal" else rng.uniform(-np.pi, np.pi, 2)
            state = StateVector(np.array([math.sqrt(p), math.sqrt(1.0 - p)])
                                * np.exp(1j * np.asarray(phases)))
            path = tmp_path / "state.json"
            path.write_text(dumps(state_to_dict(state)))
        code, out, err = run_cli(capsys, "simulate", "--state", str(path),
                                 "--phases", "65536", "--fringes")
        assert (code, err) == (0, "")
        fr = run_interferometer(state, InterferometerConfig(
            splitter=hadamard(), sweep_phases=uniform_sweep(65536)))
        rows = zip(fr.phases.tolist(), fr.intensity_port1.tolist(),
                   fr.intensity_port2.tolist())
        assert out == csv_reference("phi,I1,I2", rows)


class TestPipeline:
    """construct | validate --strict must pass for every builder."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "h2", "--gamma", "45", "--dphi", "0"],
            ["construct", "h2", "--gamma", "60", "--dphi", "22.5"],
            [
                "construct", "diag", "--dim", "3",
                "--alphas", "0.333333,0.333333,0.333334",
                "--sign", "+1", "--phases", "10,-20",
            ],
            [
                "construct", "diag", "--dim", "4",
                "--alphas", "0.5,0.5,0.5,0.5",
                "--sign", "+1", "--phases", "0,90,180",
            ],
            [
                "construct", "kron", "--a", HADAMARD_OP, "--b", HADAMARD_OP,
                "--member", "ab",
            ],
            # alpha = trace_sign makes its radicand (1 - s*alpha)/2 exactly 0.
            [
                "construct", "diag", "--dim", "3",
                "--alphas", "1,0.5,-0.5", "--sign", "+1", "--phases", "10,-20",
            ],
            [
                "construct", "diag", "--dim", "4",
                "--alphas=-1,-1,-0.5,0.5", "--sign", "-1", "--phases", "0,90,180",
            ],
        ],
    )
    def test_construct_then_strict_validate(self, capsys, monkeypatch, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, _, err = run_cli(capsys, "validate", "-", "--strict")
        assert code == 0, err

    def test_convert_flip_roundtrip_through_files(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "convert", "--op", HADAMARD_OP)
        assert code == 0
        payload = json.loads(out)
        ps_file = tmp_path / "ps.json"
        ps_file.write_text(json.dumps(
            {"dim": payload["dim"], "projectors": payload["projectors"]}
        ))
        signs = ",".join(str(s) for s in payload["signs"])
        code, out, err = run_cli(capsys, "construct", "flip",
                                 "--projectors", str(ps_file), f"--signs={signs}")
        assert code == 0, err
        m = matrix_from_dict(json.loads(out))
        assert max_abs(m - np.array([[1, 1], [1, -1]]) / np.sqrt(2)) <= 1e-9


class TestColdStart:
    """Serving one request of every subcommand loads no numpy module that
    ``import eigenschaft.cli`` did not (``np.unique``, for one, imports all
    of ``numpy.ma`` on its first call)."""

    REQUESTS = [
        ["construct", "h2", "--gamma", "45", "--dphi", "0"],
        ["construct", "diag", "--dim", "3", "--alphas", "0.333333,0.333333,0.333334",
         "--sign", "1", "--phases", "0,0"],
        ["construct", "kron", "--a", HADAMARD_OP, "--b", DIAG_OP],
        ["construct", "flip", "--projectors", STD3_PROJECTORS, "--signs=-1,1,1"],
        ["validate", HADAMARD_OP, "--strict"],
        ["convert", "--op", HADAMARD_OP],
        ["convert", "--projectors", STD3_PROJECTORS],
        ["decompose", "--op", HADAMARD_OP, "--state", E1_STATE],
        ["classify", "--rho", RHO_TILDE],
        ["evolve", "--op", HADAMARD_OP, "--omega1", "1", "--omega2", "2",
         "--time", "0.5"],
        ["evolve", "--op", HADAMARD_OP, "--omega1", "1", "--omega2", "2",
         "--times", "0,0.5,1"],
        ["simulate", "--state", EQUAL_STATE, "--phases", "16", "--noise", "0"],
        ["simulate", "--state", EQUAL_STATE, "--phases", "16", "--noise", "0",
         "--fringes"],
    ]
    SERVE = """
import contextlib, io, json, sys
import eigenschaft.cli

def numpy_modules():
    return {name for name in sys.modules if name.split(".")[0] == "numpy"}

before = numpy_modules()
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(eigenschaft.cli.main(argv))
print(json.dumps({"codes": codes, "loaded": sorted(numpy_modules() - before)}))
"""

    def test_no_numpy_module_loads_after_import(self):
        proc = subprocess.run(
            [sys.executable, "-c", self.SERVE, json.dumps(self.REQUESTS)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["codes"] == [0] * len(self.REQUESTS)
        assert result["loaded"] == []


class TestOverflowingNumbers:
    """A number too large for a float is malformed input, not a crash."""

    HUGE = "1" + "0" * 400

    @pytest.mark.parametrize("argv, payload, message", [
        (["validate"], '{"dim": 1, "entries": [[%s, 0]]}', "entries[0] must be finite"),
        (["simulate", "--phases", "8", "--state"],
         '{"dim": 2, "amplitudes": [[1.0, 0.0], [0, %s]]}',
         "amplitudes[1] must be finite"),
    ], ids=["validate-entries", "simulate-amplitudes"])
    def test_exit_2_without_traceback(self, capsys, tmp_path, argv, payload, message):
        f = tmp_path / "huge.json"
        f.write_text(payload % self.HUGE)
        assert run_cli(capsys, *argv, str(f)) == (2, "", f"malformed input: {message}\n")


class TestUnreadableInput:
    """A file that cannot be decoded or parsed is a usage error, not a crash."""

    DEEP = b"[" * 200000

    @pytest.mark.parametrize("source, data, message", [
        ("file", b"\xff\xfe\x00bad", "is not UTF-8 text"),
        ("stdin", b"\xff\xfe\x00bad", "- is not UTF-8 text"),
        ("file", DEEP, "is nested too deeply"),
        ("stdin", DEEP, "- is nested too deeply"),
    ], ids=["non-utf8-file", "non-utf8-stdin", "deep-file", "deep-stdin"])
    def test_exit_2_without_traceback(self, capsys, tmp_path, monkeypatch, source,
                                      data, message):
        f = tmp_path / "bad.json"
        f.write_bytes(data)
        path = str(f) if source == "file" else "-"
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="strict"))
        code, out, err = run_cli(capsys, "validate", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert message in err

    def test_closed_stdin_is_a_usage_error(self, capsys, monkeypatch):
        """Python sets ``sys.stdin`` to ``None`` when descriptor 0 is
        closed (``eigenschaft validate - <&-``)."""
        monkeypatch.setattr(sys, "stdin", None)
        assert run_cli(capsys, "validate", "-") == (
            2, "", "error: cannot read -: stdin is closed\n")

    def test_closed_stdin_object_is_a_usage_error(self, capsys, monkeypatch):
        """In-process, a closed file object raises ``ValueError``, not ``OSError``."""
        monkeypatch.setattr(sys, "stdin", _closed_stream())
        assert run_cli(capsys, "validate", "-") == (
            2, "", "error: cannot read -: I/O operation on closed file.\n")


def _closed_stream():
    """A file object that is closed, as a caller's stream may be in-process."""
    stream = open(os.devnull, "w")
    stream.close()
    return stream


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture(params=[False, True], ids=["buffered", "unbuffered"])
def env(request):
    """The environment of a child whose stdout is buffered, or not."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if request.param:
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestWritingStdout:
    """``cli.main`` lays out the whole payload before it writes stdout."""

    def test_memory_error_while_laying_out_leaves_stdout_empty(self, capsys,
                                                                monkeypatch):
        emit_array = serialize._emit_array
        calls = []

        def second_call_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise MemoryError
            return emit_array(*args)

        monkeypatch.setattr(serialize, "_emit_array", second_call_fails)
        code, out, err = run_cli(capsys, "convert", "--op", HADAMARD_OP)
        assert len(calls) == 2  # one array per projector
        assert (code, out) == (1, "")
        assert err == "error: out of memory: allocation failed\n"

    def test_closed_stdout_is_one_error_line(self, capsys, monkeypatch):
        """Python sets ``sys.stdout`` to ``None`` when descriptor 1 is closed."""
        monkeypatch.setattr(sys, "stdout", None)
        code = main(["construct", "h2", "--gamma", "45", "--dphi", "0"])
        assert (code, capsys.readouterr().err) == (
            1, "error: cannot write stdout: stdout is closed\n")

    def test_closed_descriptor_1_is_one_error_line_in_a_process(self, env):
        """A child started with descriptor 1 closed, as ``>&-`` starts it."""
        proc = subprocess.run(
            [sys.executable, "-m", "eigenschaft", "construct", "h2",
             "--gamma", "45", "--dphi", "0"],
            stderr=subprocess.PIPE, text=True, env=env,
            preexec_fn=lambda: os.close(1),
        )
        assert (proc.returncode, proc.stderr) == (
            1, "error: cannot write stdout: stdout is closed\n")

    @pytest.mark.parametrize("stdout, message", [
        (_closed_stream(), "I/O operation on closed file."),
        (_FullStream(), f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"),
    ], ids=["closed-object", "full-object"])
    def test_stream_fault_is_one_error_line(self, capsys, monkeypatch, stdout,
                                            message):
        """A stream object that fails, with no descriptor behind it."""
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["construct", "h2", "--gamma", "45", "--dphi", "0"])
        assert (code, capsys.readouterr().err) == (
            1, f"error: cannot write stdout: {message}\n")

    def test_in_process_main_leaves_descriptors_alone(self, capsys, monkeypatch):
        """A stdout on a pipe whose reader is gone fails with a real
        descriptor behind it; ``main`` reports it and rewires nothing.  Only
        ``cli``'s ``os`` is replaced: pytest's own capture calls ``dup2``."""
        def dup2(*args):
            pytest.fail(f"main called os.dup2{args}")

        monkeypatch.setattr(cli, "os",
                            types.SimpleNamespace(**{**vars(os), "dup2": dup2}))
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = open(write_end, "w")
        try:
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["construct", "h2", "--gamma", "45", "--dphi", "0"])
        finally:
            with contextlib.suppress(OSError):  # the payload is still buffered
                stdout.close()
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot write stdout: [Errno {errno.EPIPE}] Broken pipe\n")

    @pytest.mark.parametrize("payload", ["convert-op", "fringes"])
    def test_closed_pipe_is_one_error_line(self, tmp_path, env, payload):
        """The reader takes 20 bytes of a 0.34 MB ``convert --op`` output, or
        of the 3.8 MB 65536-phase fringe CSV, and closes the pipe: exit 1
        with one line, in both stdout modes.  Unbuffered, the text layer
        drops the count of a write cut short, so the CSV's final newline, a
        write of its own, is the one that fails."""
        path = tmp_path / "s16.json"
        path.write_text(dumps(op_to_dict(EigenschaftOp(sylvester_hadamard(16) / 4))))
        argv = {"convert-op": ["convert", "--op", str(path)],
                "fringes": ["simulate", "--state", EQUAL_STATE, "--phases", "65536",
                            "--fringes"]}[payload]
        with subprocess.Popen(
            [sys.executable, "-m", "eigenschaft", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert code == 1
        assert err.startswith("error: cannot write stdout: ")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_is_one_error_line(self, env):
        """Any error writing stdout, here ENOSPC, is one line and exit 1, in
        both stdout modes."""
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "eigenschaft", "construct", "h2",
                 "--gamma", "45", "--dphi", "0"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert proc.returncode == 1
        assert proc.stderr.startswith(
            f"error: cannot write stdout: [Errno {errno.ENOSPC}] ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stderr_keeps_exit_2_in_a_process(self, env):
        """The usage line that stderr could not take stays in its buffer, and
        the interpreter's flush at exit would fail on it again (exit 120,
        buffered) but for the descriptors ``entry_point`` retires."""
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "eigenschaft", "validate", "missing.json"],
                stdout=subprocess.PIPE, stderr=full, env=env,
            )
        assert (proc.returncode, proc.stdout) == (2, b"")


class TestArgparseThroughEntryPoint:
    """Help and the usage errors argparse answers itself leave through
    ``entry_point`` too, in both stdout modes: a line that cannot be
    written is dropped, the exit code is argparse's, and help on a working
    stream is flushed before the descriptors are retired."""

    def _run(self, env, *argv, **streams):
        return subprocess.run([sys.executable, "-m", "eigenschaft", *argv],
                              env=env, **streams)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_help_to_a_full_stdout_exits_0(self, env):
        with open("/dev/full", "w") as full:
            proc = self._run(env, "--help", stdout=full, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["--bogus"], ["construct"]],
                             ids=["unknown-flag", "missing-builder"])
    def test_usage_error_to_a_full_stderr_exits_2(self, env, argv):
        with open("/dev/full", "w") as full:
            proc = self._run(env, *argv, stdout=subprocess.PIPE, stderr=full)
        assert (proc.returncode, proc.stdout) == (2, b"")

    def test_piped_help_is_the_parsers_help(self, env, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        proc = self._run({**env, "COLUMNS": "80"}, "--help", capture_output=True,
                         text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == cli.build_parser().format_help()


@pytest.mark.parametrize("stderr", [None, _FullStream(), _closed_stream()],
                         ids=["closed", "full", "closed-object"])
class TestWritingStderr:
    """A stderr line that cannot be written is dropped: the exit code and
    stdout are what they would be with the line written."""

    def test_usage_error_keeps_exit_2(self, capsys, monkeypatch, stderr):
        monkeypatch.setattr(sys, "stderr", stderr)
        assert run_cli(capsys, "validate", "missing.json") == (2, "", "")

    def test_strict_refusal_keeps_its_report(self, capsys, monkeypatch, tmp_path,
                                             stderr):
        argv = ("validate", _near_hadamard(tmp_path), "--strict")
        _, report, _ = run_cli(capsys, *argv)
        monkeypatch.setattr(sys, "stderr", stderr)
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (1, report)
        assert json.loads(out)["involution_residual"] > 1e-10


def test_integer_of_too_many_digits_is_a_usage_error(tmp_path, capsys):
    """Past ``sys.get_int_max_str_digits()`` (4300 digits by default),
    ``json.loads`` raises a plain ``ValueError``, which escaped as a
    traceback; it is invalid JSON like any other text that does not parse."""
    f = tmp_path / "digits.json"
    f.write_text('{"dim": 1, "entries": [[%s, 0]]}' % ("1" * 5000))
    code, out, err = run_cli(capsys, "validate", str(f))
    assert (code, out) == (2, "")
    if hasattr(sys, "get_int_max_str_digits"):
        assert err.startswith(f"error: {f} is not valid JSON: Exceeds the limit")


@pytest.mark.filterwarnings("error")
class TestNearFloatLimit:
    """Numbers above ``MAX_MAGNITUDE``, up to the float limit, are refused
    where they enter: the message names the caller's argument and is the
    only line on stderr, with nothing on stdout.  A numpy warning raised on
    the way fails the test; one request runs as a process too, where such a
    warning would be text on stderr ahead of the message."""

    SYMMETRIC = '{"dim": 2, "entries": [[0.5, 0], [1e308, 0], [1e308, 0], [0.5, 0]]}'
    SKEW = '{"dim": 2, "entries": [[0.5, 0], [1e308, 0], [-1e308, 0], [0.5, 0]]}'
    DIAGONAL = '{"dim": 2, "entries": [[1e308, 0], [0, 0], [0, 0], [1e308, 0]]}'
    E1 = '{"dim": 2, "amplitudes": [[1, 0], [0, 0]]}'
    HUGE_STATE = '{"dim": 2, "amplitudes": [[1e308, 0], [1e308, 0]]}'
    MATRIX = "matrix entries must be finite and at most 1e+100 in magnitude"

    @pytest.mark.parametrize("argv, payload, message", [
        (["classify", "--rho"], SYMMETRIC, MATRIX),
        (["classify", "--rho"], SKEW, MATRIX),
        (["convert", "--op"], SKEW, MATRIX),
        (["convert", "--op"], SYMMETRIC, MATRIX),
        (["validate"], SYMMETRIC, MATRIX),
        (["validate"], SKEW, MATRIX),
        (["validate"], DIAGONAL, MATRIX),
    ], ids=["classify-symmetric", "classify-skew", "convert-skew",
            "convert-symmetric", "validate-symmetric", "validate-skew",
            "validate-diagonal"])
    def test_one_error_line(self, capsys, tmp_path, argv, payload, message):
        f = tmp_path / "huge.json"
        f.write_text(payload)
        assert run_cli(capsys, *argv, str(f)) == (1, "", f"error: {message}\n")

    def test_one_error_line_in_a_process(self, tmp_path):
        f = tmp_path / "huge.json"
        f.write_text(self.SYMMETRIC)
        proc = subprocess.run(
            [sys.executable, "-m", "eigenschaft", "validate", str(f)],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"error: {self.MATRIX}\n")

    @pytest.mark.parametrize("argv, files, message", [
        (["decompose", "--op", "{0}", "--state", "{1}"], [SYMMETRIC, E1], MATRIX),
        (["simulate", "--phases", "16", "--state", "{0}"], [HUGE_STATE],
         "amplitudes must be finite and at most 1e+100 in magnitude"),
        (["classify", "--rho", "{0}"], [DIAGONAL], MATRIX),
    ], ids=["decompose", "simulate", "classify-trace"])
    def test_state_paths(self, capsys, tmp_path, argv, files, message):
        paths = []
        for k, payload in enumerate(files):
            paths.append(tmp_path / f"in{k}.json")
            paths[-1].write_text(payload)
        assert run_cli(capsys, *[a.format(*paths) for a in argv]) == (
            1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["evolve", "--op", HADAMARD_OP, "--omega1", "3", "--omega2", "0.5",
          "--times", "0,1e308"], "time samples"),
        (["evolve", "--op", HADAMARD_OP, "--omega1", "1e308",
          "--omega2=-1e308", "--times", "1"], "frequencies"),
        (["simulate", "--state", EQUAL_STATE, "--phases", "16",
          "--noise", "1e200", "--seed", "1"], "shot noise sigma"),
        (["evolve", "--op", HADAMARD_OP, "--omega1", "3", "--omega2", "0.5",
          "--time", "1e308"], "time"),
    ], ids=["times", "detuning", "noise", "time"])
    def test_derived_overflow(self, capsys, argv, message):
        """Each argument is a float, but the phase it drives (detuning times
        time) or the intensities it perturbs would overflow; the argument
        itself is refused."""
        assert run_cli(capsys, *argv) == (
            1, "", f"error: {message} must be finite and at most 1e+100 in magnitude\n")


class TestParserReuse:
    """One parser serves every ``cli.main`` call in a process."""

    SEQUENCE = [
        ["construct", "h2", "--gamma", "45", "--dphi", "0"],
        ["simulate", "--state", EQUAL_STATE, "--phases", "16", "--seed", "-1"],
        ["--help"],
        ["convert"],
        ["construct", "h2", "--gamma", "30", "--dphi", "90"],
    ]

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_same_output_as_a_fresh_parser(self, capsys, monkeypatch):
        def run_all():
            results = []
            for argv in self.SEQUENCE:
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results

        shared = run_all()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = run_all()
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 2, 0, 2, 0]
        assert all(err == "" for _, _, err in (shared[0], shared[2], shared[4]))


#: One admitted argv tail per command path; the parse opens no file.
LEAF_ARGVS = {
    ("construct", "h2"): ["--gamma", "45", "--dphi", "0"],
    ("construct", "diag"): ["--dim", "3", "--alphas", "1,0.5,-0.5", "--sign", "+1",
                            "--phases", "10,-20"],
    ("construct", "kron"): ["--a", "a.json", "--b", "b.json", "--member", "ab"],
    ("construct", "flip"): ["--projectors", "p.json", "--signs=-1,1,1"],
    ("validate",): ["m.json", "--strict"],
    ("convert",): ["--projectors", "p.json", "--family", "traceless"],
    ("decompose",): ["--op", "h.json", "--state", "s.json"],
    ("classify",): ["--rho", "r.json"],
    ("evolve",): ["--op", "h.json", "--omega1", "2", "--omega2", "0.5", "--times", "0,0.5"],
    ("simulate",): ["--state", "s.json", "--phases", "16", "--noise", "0.1",
                    "--seed", "3", "--fringes"],
}

EVOLVE = ["evolve", "--op", "h.json", "--omega1", "2", "--omega2", "0.5"]

ROUTING_CORPUS = [
    [], ["-h"], ["--help"], ["--he"], ["--bogus", "simulate"], ["-h", "simulate"],
    ["frobnicate"], ["simulat"], ["construct"], ["construct", "-h"],
    ["construct", "--help"], ["construct", "frob"], ["construct", "--bogus", "h2"],
    *([*path, *tail] for path, tail in LEAF_ARGVS.items()),
    *([*path, "-h"] for path in LEAF_ARGVS),
    *([*path, "--help"] for path in LEAF_ARGVS),
    *([*path, *tail, "--bogus"] for path, tail in LEAF_ARGVS.items()),
    *([*path, *tail, "--", "extra"] for path, tail in LEAF_ARGVS.items()),
    ["simulate", "--he"],
    ["simulate", "--state", "s.json", "--pha", "16"],
    ["simulate", "--state", "s.json", "--phases", "16", "--seed", "-1"],
    ["simulate", "--state", "s.json", "--phases", "16", "--", "--bogus"],
    ["simulate"],
    ["construct", "h2", "--gamma", "45"],
    ["construct", "h2", "h2", "--gamma", "45", "--dphi", "0"],
    ["construct", "h2", "--gamma", "45", "--dphi", "0", "h2"],
    ["construct", "diag", "--dim", "5", "--alphas", "1,0,0", "--sign", "1",
     "--phases", "0,0"],
    ["construct", "flip", "--projectors", "p.json", "--signs", "-1,1,1"],
    ["convert"],
    ["convert", "--op", "h.json", "--projectors", "p.json"],
    ["convert", "--op", "h.json", "--family", "flip"],
    ["convert", "--projectors", "p.json", "--family", "bogus"],
    EVOLVE,
    [*EVOLVE, "--time", "1", "--times", "0,1"],
    ["validate", "--", "m.json"],
    ["validate", "--", "-"],
    ["validate", "m.json", "n.json"],
]


def _parse_outcome(parse, argv):
    """Exit code (0 for a namespace), stdout, stderr, and the namespace
    without the subparsers' own ``command`` and ``builder``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, names = 0, vars(parse(list(argv)))
        except SystemExit as exc:
            code, names = exc.code, None
    if names is not None:
        names = {k: v for k, v in names.items() if k not in ("command", "builder")}
    return code, out.getvalue(), err.getvalue(), names


class TestRouting:
    """Each argv is parsed by the parser of the command it names, with the
    outcome of the full parser's ``parse_args``."""

    def test_every_command_path_is_routed(self):
        assert set(cli.build_parser().leaves) == set(LEAF_ARGVS)

    @pytest.mark.parametrize("argv", ROUTING_CORPUS,
                             ids=lambda argv: "_".join(argv) or "empty")
    def test_same_outcome_as_the_full_parser(self, argv):
        routed = _parse_outcome(cli._parse, argv)
        assert routed == _parse_outcome(cli.build_parser().parse_args, argv)
        assert routed[0] in (0, 2)

    @pytest.mark.parametrize("argv, last_line", [
        (["simulate", "--state", EQUAL_STATE, "--phases", "16", "--bogus"],
         "eigenschaft: error: unrecognized arguments: --bogus"),
        (["construct"],
         "eigenschaft construct: error: the following arguments are required: builder"),
    ], ids=["leftover-argument", "construct-alone"])
    def test_usage_error_names_its_parser(self, capsys, argv, last_line):
        """Pinned outright: a change made to both parsers passes the
        comparison above."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.splitlines()[-1] == last_line

    def test_help_prefix_is_the_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--he"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: eigenschaft")


class TestOneParse:
    """A request a command owns is parsed once, by that command's parser;
    through the top-level parser, ``simulate`` took 2 ``parse_known_args``
    calls and ``construct flip`` 3."""

    REQUESTS = [
        pytest.param(["simulate", "--state", EQUAL_STATE, "--phases", "16"],
                     "eigenschaft simulate", id="simulate"),
        pytest.param(["construct", "flip", "--projectors", STD3_PROJECTORS,
                      "--signs=-1,1,1"], "eigenschaft construct flip", id="construct_flip"),
    ]

    @pytest.fixture
    def progs(self, monkeypatch):
        """The ``prog`` of each parser ``parse_known_args`` is called on."""
        progs = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            progs.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        return progs

    @pytest.mark.parametrize("argv, prog", REQUESTS)
    def test_one_call_on_the_commands_parser(self, capsys, progs, argv, prog):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err, progs) == (0, "", [prog])

    @pytest.mark.parametrize("argv, prog", REQUESTS)
    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch, progs, argv, prog):
        expected = run_cli(capsys, *argv)
        progs.clear()
        monkeypatch.setattr(sys, "argv", ["eigenschaft", *argv])
        code = main()
        assert (code, *capsys.readouterr()) == expected
        assert progs == [prog]


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sign", ["0", "2", "+-1", "one"])
    def test_sign_outside_the_choices(self, capsys, sign):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "diag", "--dim", "3", "--alphas", "1,0,0",
                  "--sign", sign, "--phases", "0,0"])
        assert exc.value.code == 2
        assert "argument --sign: invalid " in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["construct", "diag", "--dim", "3", "--alphas", "0.5,x", "--sign", "1",
          "--phases", "0,0"],
         "argument --alphas: not a comma-separated number list: '0.5,x'"),
        (["construct", "flip", "--projectors", STD3_PROJECTORS, "--signs", "1,x,1"],
         "argument --signs: not a comma-separated integer list: '1,x,1'"),
    ], ids=["alphas", "signs"])
    def test_list_that_does_not_parse(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "h2", "--gamma", "45"])
        assert exc.value.code == 2


class TestSharedSplitter:
    """``simulate`` without ``--splitter`` takes the one 50/50 splitter
    ``hadamard()`` returns."""

    ARGV = ["simulate", "--state", EQUAL_STATE, "--phases", "16", "--noise", "0",
            "--seed", "1"]

    def test_built_once_and_read_only(self):
        assert hadamard() is hadamard()
        assert not hadamard().matrix.flags.writeable

    def test_two_requests_match_the_golden(self, capsys):
        for _ in range(2):
            code, out, err = run_cli(capsys, *self.ARGV)
            assert (code, err) == (0, "")
            assert out == golden("simulate_noiseless.json")


#: Every form that reads a file, with ``{}`` for the file the property
#: writes; every other argument is fixed and valid.
FILE_FORMS = {
    "validate": ["validate", "{}"],
    "classify": ["classify", "--rho", "{}"],
    "decompose-op": ["decompose", "--op", "{}", "--state", E1_STATE],
    "decompose-state": ["decompose", "--op", HADAMARD_OP, "--state", "{}"],
    "convert-op": ["convert", "--op", "{}"],
    "convert-flip": ["convert", "--projectors", "{}", "--family", "flip"],
    "convert-traceless": ["convert", "--projectors", "{}", "--family", "traceless"],
    "kron-a": ["construct", "kron", "--a", "{}", "--b", DIAG_OP],
    "kron-b": ["construct", "kron", "--a", HADAMARD_OP, "--b", "{}"],
    "flip": ["construct", "flip", "--projectors", "{}", "--signs=-1,1,1"],
    "evolve": ["evolve", "--op", "{}", "--omega1", "1", "--omega2", "2",
               "--time", "0.5"],
    "simulate": ["simulate", "--state", "{}", "--phases", "16", "--noise", "0"],
}

NUMBERS = (st.floats() | st.integers()
           | st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 0.7071067811865476,
                              1e100, -1e101, 1e308, 5e-324, 2**64, 10**400]))
LEAVES = st.none() | st.booleans() | NUMBERS | st.text(max_size=4)
KEYS = st.sampled_from(["dim", "entries", "amplitudes", "projectors",
                        "trace_class"]) | st.text(max_size=4)
ANY_JSON = st.recursive(
    LEAVES, lambda items: st.lists(items, max_size=4)
    | st.dictionaries(KEYS, items, max_size=5), max_leaves=20)


def _payload(dim, count, key, extra):
    """A wire-format object of ``dim`` with ``count`` pairs under ``key``."""
    pairs = st.lists(st.lists(NUMBERS, min_size=2, max_size=2),
                     min_size=count, max_size=count)
    return st.fixed_dictionaries({"dim": st.just(dim), key: pairs}, optional=extra)


def _shaped(dim):
    """A matrix, state or projector-set object of ``dim``."""
    matrix = _payload(dim, dim * dim, "entries",
                      {"trace_class": st.integers(-4, 4) | LEAVES})
    state = _payload(dim, dim, "amplitudes", {})
    projectors = st.fixed_dictionaries({
        "dim": st.just(dim),
        "projectors": st.lists(_payload(dim, dim * dim, "entries", {}),
                               min_size=dim, max_size=dim)})
    return matrix | state | projectors


def _mutated(value, k, x):
    """``value`` with its ``k``-th leaf, in document order, replaced by
    ``x``; unchanged when it has no more than ``k`` leaves."""
    seen = []

    def walk(v):
        if isinstance(v, list):
            return [walk(item) for item in v]
        if isinstance(v, dict):
            return {key: walk(item) for key, item in v.items()}
        seen.append(v)
        return x if len(seen) == k + 1 else v

    return walk(value)


VALID = [json.loads(path.read_text()) for path in sorted(DATA.glob("*.json"))]
#: Any JSON value; an object shaped like a payload, with arbitrary numbers;
#: or a file of tests/data with at most one leaf replaced.  The last two get
#: examples past the reader, into the gates and the writers.
JSON = (ANY_JSON | st.integers(1, 3).flatmap(_shaped)
        | st.builds(_mutated, st.sampled_from(VALID), st.integers(0, 40), LEAVES))


@pytest.mark.parametrize("form", FILE_FORMS)
@settings(deadline=None)
@given(content=st.binary(max_size=64) | JSON.map(lambda v: json.dumps(v).encode()))
def test_any_input_file_exits_cleanly(form, content):
    """Whatever the input file holds, ``cli.main`` returns 0, 1 or 2 and
    raises nothing, and writes to stdout only when it returns 0.  The
    example budget is the profile's (tests/conftest.py)."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as fh:
            fh.write(content)
        argv = [a.format(path) for a in FILE_FORMS[form]]
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
    assert code == 0 or out.getvalue() == ""


#: Option values for the argv property.  Files are the valid tests/data
#: payloads, stdin (``-``, which holds one of them) and a missing path;
#: numbers are argparse's text of edge, ordinary and malformed values.
ARG_FILES = st.sampled_from(
    [str(path) for path in sorted(DATA.glob("*.json"))]
    + ["-", str(DATA / "missing.json")])
ARG_NUMBERS = (st.integers(-3, 3).map(str) | st.floats(-360.0, 360.0).map(repr)
               | st.floats().map(repr)
               | st.sampled_from(["-0", "1e-300", "1e300", "1e400", "nan", "-inf", "",
                                  "x", "0x10", "1_0", str(2**64)]))
#: At most six items, so that a list never asks for a large allocation;
#: half the lists hold only numbers that parse.
ARG_LISTS = (st.lists(st.sampled_from(["1", "-1"]) | st.floats(-360.0, 360.0).map(repr),
                      min_size=1, max_size=6)
             | st.lists(ARG_NUMBERS, max_size=6)).map(",".join)
#: At most 1024 phases: the property never reaches the unallocatable sweep,
#: which has its own test in a capped address space.
ARG_PHASES = st.integers(-2, 1024).map(str) | st.sampled_from(["1.5", "x", "", "1e3"])
ARG_SEEDS = st.integers(-2, 2**70).map(str) | st.sampled_from(["1.5", "x", ""])
#: Each subcommand's options; ``None`` marks a flag that takes no value.
ARGV_FORMS = {
    "construct h2": {"--gamma": ARG_NUMBERS, "--dphi": ARG_NUMBERS},
    "construct diag": {"--dim": st.sampled_from(["3", "4", "2"]),
                       "--alphas": ARG_LISTS,
                       "--sign": st.sampled_from(["1", "-1", "0"]),
                       "--phases": ARG_LISTS},
    "construct kron": {"--a": ARG_FILES, "--b": ARG_FILES,
                       "--member": st.sampled_from(["ib", "ai", "ab", "ba"])},
    "construct flip": {"--projectors": ARG_FILES, "--signs": ARG_LISTS},
    "validate": {"": ARG_FILES, "--strict": None},
    "convert": {"--op": ARG_FILES, "--projectors": ARG_FILES,
                "--family": st.sampled_from(["flip", "traceless", "kron"])},
    "decompose": {"--op": ARG_FILES, "--state": ARG_FILES},
    "classify": {"--rho": ARG_FILES},
    "evolve": {"--op": ARG_FILES, "--omega1": ARG_NUMBERS, "--omega2": ARG_NUMBERS,
               "--time": ARG_NUMBERS, "--times": ARG_LISTS},
    "simulate": {"--state": ARG_FILES, "--phases": ARG_PHASES,
                 "--noise": ARG_NUMBERS, "--seed": ARG_SEEDS, "--splitter": ARG_FILES,
                 "--fringes": None},
}


@st.composite
def argvs(draw, form: str) -> list[str]:
    """The words of ``form``, then its options in any order, each left
    out one time in four, each value as a separate word or after ``=``, and
    one time in five a word in a place the parser does not expect."""
    options = ARGV_FORMS[form]
    argv = form.split()
    for flag in draw(st.permutations(list(options))):
        if draw(st.integers(0, 3)) == 3:
            continue
        values = options[flag]
        if values is None:
            argv.append(flag)
        elif not flag:
            argv.append(draw(values))
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
        else:
            argv += [flag, draw(values)]
    if draw(st.integers(0, 4)) == 4:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "extra", "-h", "--"])))
    return argv


@pytest.mark.parametrize("form", ARGV_FORMS)
@settings(deadline=None)
@given(data=st.data())
def test_any_argv_exits_cleanly(form, data):
    """Whatever the options, ``cli.main`` exits 0, 1 or 2 (argparse's own
    exits arrive as ``SystemExit``), prints no traceback, and writes to
    stdout only when it exits 0, or when ``validate --strict`` prints the
    report of a matrix its gate refuses.  The example budget is the
    profile's."""
    argv = data.draw(argvs(form), label="argv")
    stdin = Path(data.draw(st.sampled_from(sorted(DATA.glob("*.json"))),
                           label="stdin")).read_text()
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    refused = code == 1 and err.getvalue().startswith("strict gate failed: ")
    assert code == 0 or refused or out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
