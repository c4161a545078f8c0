import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eigenschaft.cli import main
from eigenschaft.linalg import max_abs
from eigenschaft.serialize import matrix_from_dict

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


class TestValidate:
    def test_report_golden(self, capsys):
        code, out, _ = run_cli(capsys, "validate", HADAMARD_OP)
        assert code == 0
        assert out == golden("validate_hadamard.json")

    def test_report_schema(self, capsys):
        _, out, _ = run_cli(capsys, "validate", HADAMARD_OP)
        payload = json.loads(out)
        for key in (
            "dim", "hermiticity_residual", "unitarity_residual",
            "involution_residual", "trace_re", "trace_im", "trace_class",
            "trace_class_distance", "trace_class_suspect",
        ):
            assert key in payload

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

    def test_env_tolerance_loosens_gate(self, capsys, tmp_path, monkeypatch):
        m = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        m[0, 1] += 1e-7
        m[1, 0] += 1e-7
        f = tmp_path / "near.json"
        f.write_text(json.dumps({
            "dim": 2,
            "entries": [[float(x), 0.0] for x in m.ravel()],
        }))
        code, _, _ = run_cli(capsys, "validate", str(f), "--strict")
        assert code == 1
        monkeypatch.setenv("EIGENSCHAFT_TOL", "1e-3")
        code, _, _ = run_cli(capsys, "validate", str(f), "--strict")
        assert code == 0

    def test_bad_env_tolerance_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("EIGENSCHAFT_TOL", "banana")
        code, _, err = run_cli(capsys, "validate", HADAMARD_OP, "--strict")
        assert code == 2
        assert "EIGENSCHAFT_TOL" in err

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

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run_cli(capsys, "convert")
        assert code == 2
        assert "exactly one" in err


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
        code, _, err = run_cli(
            capsys, "evolve", "--op", HADAMARD_OP,
            "--omega1", "1", "--omega2", "0",
            "--time", "1", "--times", "0,1",
        )
        assert code == 2
        assert "exactly one" in err


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

    def test_noisy_run_reproducible(self, capsys):
        args = (
            "simulate", "--state", EQUAL_STATE,
            "--phases", "64", "--noise", "0.01", "--seed", "7",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert json.loads(first)["truth_error"]["phase"] <= 0.2


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
        ],
    )
    def test_construct_then_strict_validate(self, argv):
        build = subprocess.run(
            [sys.executable, "-m", "eigenschaft", *argv],
            capture_output=True, text=True,
        )
        assert build.returncode == 0, build.stderr
        check = subprocess.run(
            [sys.executable, "-m", "eigenschaft", "validate", "-", "--strict"],
            input=build.stdout, capture_output=True, text=True,
        )
        assert check.returncode == 0, check.stderr

    def test_convert_flip_roundtrip_through_files(self, tmp_path):
        ps = subprocess.run(
            [sys.executable, "-m", "eigenschaft", "convert", "--op", HADAMARD_OP],
            capture_output=True, text=True,
        )
        assert ps.returncode == 0
        payload = json.loads(ps.stdout)
        ps_file = tmp_path / "ps.json"
        ps_file.write_text(json.dumps(
            {"dim": payload["dim"], "projectors": payload["projectors"]}
        ))
        signs = ",".join(str(s) for s in payload["signs"])
        rebuild = subprocess.run(
            [
                sys.executable, "-m", "eigenschaft", "construct", "flip",
                "--projectors", str(ps_file), f"--signs={signs}",
            ],
            capture_output=True, text=True,
        )
        assert rebuild.returncode == 0, rebuild.stderr
        m = matrix_from_dict(json.loads(rebuild.stdout))
        assert max_abs(m - np.array([[1, 1], [1, -1]]) / np.sqrt(2)) <= 1e-9


class TestOverflowingNumbers:
    """A number too large for a float is malformed input, not a crash."""

    HUGE = "1" + "0" * 400

    @pytest.mark.parametrize("argv, payload, message", [
        (["validate"], '{"dim": 1, "entries": [[%s, 0]]}', "entries[0] must be finite"),
        (["simulate", "--phases", "8", "--state"],
         '{"dim": 2, "amplitudes": [[1.0, 0.0], [0, %s]]}',
         "amplitudes[1] must be finite"),
    ], ids=["validate-entries", "simulate-amplitudes"])
    def test_exit_2_without_traceback(self, tmp_path, argv, payload, message):
        f = tmp_path / "huge.json"
        f.write_text(payload % self.HUGE)
        proc = subprocess.run(
            [sys.executable, "-m", "eigenschaft", *argv, str(f)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"malformed input: {message}\n"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "h2", "--gamma", "45"])
        assert exc.value.code == 2
