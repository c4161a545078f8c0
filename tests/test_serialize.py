import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenschaft import serialize
from eigenschaft.dynamics import BeatSample
from eigenschaft.errors import DomainError, SerializationError
from eigenschaft.interferometer import (
    FringeRecord,
    InterferometerConfig,
    holographic_report,
    uniform_sweep,
)
from eigenschaft.linalg import max_abs
from eigenschaft.operators import (
    EigenschaftOp,
    ProjectorSet,
    complement_family,
    hadamard,
    to_projectors,
    validate,
)
from eigenschaft.states import (
    DensityMatrix,
    StateVector,
    classify,
    decompose_state,
)

from helpers import haar_unitary, random_hermitian, random_involution, random_state


class TestMatrixFormat:
    def test_roundtrip(self):
        m = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -1.0]])
        back = serialize.matrix_from_dict(serialize.matrix_to_dict(m))
        assert np.array_equal(back, m)

    def test_row_major_order(self):
        d = serialize.matrix_to_dict(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert d["entries"] == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]

    def test_rejects_wrong_length(self):
        with pytest.raises(SerializationError, match="entries"):
            serialize.matrix_from_dict({"dim": 2, "entries": [[1.0, 0.0]] * 3})

    def test_rejects_bad_pair(self):
        with pytest.raises(SerializationError):
            serialize.matrix_from_dict({"dim": 1, "entries": [[1.0]]})
        with pytest.raises(SerializationError):
            serialize.matrix_from_dict({"dim": 1, "entries": [[1.0, "x"]]})
        with pytest.raises(SerializationError):
            serialize.matrix_from_dict({"dim": 1, "entries": [[1.0, True]]})

    def test_rejects_missing_or_bad_dim(self):
        with pytest.raises(SerializationError):
            serialize.matrix_from_dict({"entries": []})
        with pytest.raises(SerializationError):
            serialize.matrix_from_dict({"dim": 0, "entries": []})
        with pytest.raises(SerializationError):
            serialize.matrix_from_dict({"dim": 2.0, "entries": [[0.0, 0.0]] * 4})

    def test_rejects_non_object(self):
        with pytest.raises(SerializationError):
            serialize.matrix_from_dict([1, 2, 3])

    def test_rejects_rectangular(self):
        with pytest.raises(SerializationError):
            serialize.matrix_to_dict(np.ones((2, 3)))


class TestStateFormat:
    def test_roundtrip(self):
        state = StateVector(np.array([0.6, 0.8j]))
        back = serialize.state_from_dict(serialize.state_to_dict(state))
        assert np.array_equal(back.amplitudes, state.amplitudes)

    def test_rejects_wrong_length(self):
        with pytest.raises(SerializationError):
            serialize.state_from_dict({"dim": 3, "amplitudes": [[1.0, 0.0]]})


class TestOperatorFormat:
    def test_roundtrip_carries_trace_class(self):
        op = EigenschaftOp.from_matrix(np.diag([1.0, -1.0, 1.0]))
        d = serialize.op_to_dict(op)
        assert d["trace_class"] == 1
        back = serialize.op_from_dict(d)
        assert back.trace_class == 1
        assert max_abs(back.matrix - op.matrix) == 0.0

    def test_missing_trace_class_is_inferred(self):
        d = serialize.matrix_to_dict(hadamard().matrix)
        assert serialize.op_from_dict(d).trace_class == 0

    def test_mismatched_trace_class_rejected(self):
        d = serialize.op_to_dict(hadamard())
        d["trace_class"] = 2
        with pytest.raises(SerializationError, match="trace_class"):
            serialize.op_from_dict(d)

    @pytest.mark.parametrize("declared", [1.5, "1"])
    def test_non_integer_trace_class_rejected(self, declared):
        d = serialize.op_to_dict(EigenschaftOp.from_matrix(np.diag([1.0, -1.0, 1.0])))
        d["trace_class"] = declared
        with pytest.raises(SerializationError,
                           match="^'trace_class' must be an integer$"):
            serialize.op_from_dict(d)

    def test_near_involution_is_refused(self):
        d = serialize.matrix_to_dict(np.diag([1.0 + 1e-7, -1.0 - 1e-7]))
        with pytest.raises(DomainError, match="not an involution"):
            serialize.op_from_dict(d)


class TestProjectorSetFormat:
    def test_roundtrip(self):
        pd = to_projectors(
            EigenschaftOp.from_matrix(
                random_involution(3, np.random.default_rng(70))
            )
        )
        d = serialize.projector_set_to_dict(pd.projectors)
        back = serialize.projector_set_from_dict(d)
        for a, b in zip(back.projectors, pd.projectors.projectors):
            assert max_abs(a - b) == 0.0

    def test_signs_in_decomposition_payload(self):
        pd = to_projectors(hadamard())
        d = serialize.projector_decomposition_to_dict(pd)
        assert sorted(d["signs"]) == [-1, 1]

    def test_dimension_disagreement_rejected(self):
        ps = ProjectorSet.standard_basis(2)
        d = serialize.projector_set_to_dict(ps)
        d["dim"] = 3
        with pytest.raises(SerializationError):
            serialize.projector_set_from_dict(d)

    def test_projectors_must_be_a_list(self):
        d = serialize.projector_set_to_dict(ProjectorSet.standard_basis(2))
        d["projectors"] = tuple(d["projectors"])
        with pytest.raises(SerializationError,
                           match="^'projectors' must be a list of matrices$"):
            serialize.projector_set_from_dict(d)


class TestReportsAndRecords:
    def test_validation_report_flat(self):
        d = serialize.validation_report_to_dict(validate(hadamard()))
        assert d["dim"] == 2
        assert all(not isinstance(v, dict) for v in d.values())
        json.dumps(d)  # must be JSON-ready as-is

    @pytest.mark.parametrize("writer, make", [
        (serialize.classification_to_dict,
         lambda: classify(DensityMatrix(np.diag([1.0, 0.0])))),
        (serialize.classification_to_dict,
         lambda: classify(DensityMatrix(np.diag([0.5, 0.5])))),
        (serialize.holographic_report_to_dict, lambda: _report(0.0)),
        (serialize.holographic_report_to_dict, lambda: _report(0.05)),
    ], ids=["pure", "mixture", "report-noiseless", "report-noisy"])
    def test_report_writers_copy_like_asdict(self, writer, make):
        obj = make()
        before = repr(obj)
        payload = writer(obj)
        assert _items(payload) == _items(dataclasses.asdict(obj))
        _plant_negative_zeros(payload)
        assert repr(obj) == before

    def test_beat_trace_csv(self):
        text = serialize.beat_trace_csv(
            [BeatSample(0.0, 0.0), BeatSample(0.5, -1.25)]
        )
        assert text == "t,delta_phi\n0.0,0.0\n0.5,-1.25\n"

    def test_fringe_csv(self):
        fr = FringeRecord(
            phases=np.array([0.0, 1.0]),
            intensity_port1=np.array([0.75, 0.25]),
            intensity_port2=np.array([0.25, 0.75]),
        )
        assert serialize.fringe_csv(fr) == (
            "phi,I1,I2\n0.0,0.75,0.25\n1.0,0.25,0.75\n"
        )

    def test_dumps_deterministic(self):
        u = haar_unitary(3, np.random.default_rng(71))
        ps = ProjectorSet.from_columns(u)
        d = serialize.projector_set_to_dict(ps)
        assert serialize.dumps(d) == serialize.dumps(
            serialize.projector_set_to_dict(ps)
        )


def _report(noise: float):
    cfg = InterferometerConfig(
        splitter=hadamard(), sweep_phases=uniform_sweep(32),
        shot_noise_sigma=noise,
    )
    return holographic_report(StateVector(np.array([0.6, 0.8j])), cfg, seed=3)


def _items(d: dict) -> list:
    """The items of ``d``, nested objects included, in their key order."""
    return [(k, _items(v) if isinstance(v, dict) else v) for k, v in d.items()]


# --- byte identity of the writer and bit exactness of the reader -----------

WIRE_DIMS = (1, 2, 3, 7, 16)
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def _oracle(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _plant_negative_zeros(payload):
    """Put -0.0, in place, into a real and an imaginary part of every list
    of [re, im] pairs and into the first float value of every object."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, float):
                payload[key] = -0.0
                break
        for value in payload.values():
            _plant_negative_zeros(value)
    elif isinstance(payload, list):
        if payload and all(isinstance(p, list) and len(p) == 2 for p in payload):
            payload[0][1] = -0.0
            payload[-1][0] = -0.0
        else:
            for item in payload:
                _plant_negative_zeros(item)


def _cli_payloads(n: int) -> dict:
    """One payload of each kind the CLI writes, at dimension ``n``."""
    rng = np.random.default_rng(100 + n)
    op = EigenschaftOp.from_matrix(random_involution(n, rng))
    decomposition = to_projectors(op)
    psi = StateVector(random_state(n, rng))
    eigvec = StateVector(np.eye(n, dtype=complex)[0])
    rho = DensityMatrix(np.diag(np.full(n, 1.0 / n)))
    return {
        "operator": serialize.op_to_dict(op),
        "projector_set": serialize.projector_set_to_dict(decomposition.projectors),
        "projector_decomposition": serialize.projector_decomposition_to_dict(
            decomposition
        ),
        "members": {
            "members": [serialize.op_to_dict(m)
                        for m in complement_family(decomposition.projectors)]
        },
        "validation_report": serialize.validation_report_to_dict(validate(op)),
        "classification": serialize.classification_to_dict(classify(rho)),
        "decomposition_with_residual": serialize.decomposition_to_dict(
            decompose_state(random_hermitian(n, rng), psi)
        ),
        "decomposition_without_residual": serialize.decomposition_to_dict(
            decompose_state(np.diag(np.arange(1.0, n + 1.0)), eigvec)
        ),
        "state": serialize.state_to_dict(psi),
    }


class TestDumpsByteIdentity:
    @pytest.mark.parametrize("n", WIRE_DIMS)
    def test_cli_payloads(self, n):
        for kind, payload in _cli_payloads(n).items():
            assert serialize.dumps(payload) == _oracle(payload), kind
            _plant_negative_zeros(payload)
            assert serialize.dumps(payload) == _oracle(payload), kind

    @pytest.mark.parametrize("count", [1, 2, 3, 1023, 1024, 1025, 2049])
    def test_row_counts(self, count):
        values = np.random.default_rng(count).standard_normal(count) * 1j
        values[0] = complex(0.5, -0.0)
        values[-1] = complex(-0.0, 1e300)
        payload = {"dim": count, "amplitudes": serialize._complex_to_pairs(values)}
        assert serialize.dumps(payload) == _oracle(payload)
        payload["amplitudes"][-1] = []  # an empty last row
        assert serialize.dumps(payload) == _oracle(payload)

    def test_residual_state_present_and_absent(self):
        payloads = _cli_payloads(3)
        assert payloads["decomposition_with_residual"]["residual_state"] is not None
        assert payloads["decomposition_without_residual"]["residual_state"] is None

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_holographic_report(self, noise):
        cfg = InterferometerConfig(
            splitter=hadamard(), sweep_phases=uniform_sweep(32),
            shot_noise_sigma=noise,
        )
        state = StateVector(np.array([0.6, 0.8j]))
        payload = serialize.holographic_report_to_dict(
            holographic_report(state, cfg, seed=3)
        )
        assert serialize.dumps(payload) == _oracle(payload)
        _plant_negative_zeros(payload)
        assert serialize.dumps(payload) == _oracle(payload)

    # Fixed ids keep each payload's test name when the list changes.
    @pytest.mark.parametrize("payload", [
        {}, [], [[]], [[], [1.0]], [[1.0], []], [[1, 2.5], [3]],
        [[-0.0, 0.0]],
        [[True, 1.0]], [[None, 1.0]], [["a,b]", 1.0]], [[1.0, [2.0]]],
        [(1.0, 2.0)], ([1.0, 2.0], [3.0, 4.0]), [1.0, 2], [[10 ** 40, -7]],
        {"a,[b]": "c]d,[e", "é": "☃\n"},
        {"nested": {"deep": [{"entries": [[0.5, -0.0]]}, [], {}]}},
        [[0.5, -0.0], [1e300], [2.0, -1.0, 3.0]],
        [[1, 2], [-3, 0], [10 ** 20, 5]],
        [[np.float64(0.5), np.float64(-0.0)], [np.float64(1e-300), 2.0]],
        [[0.5], [-0.0], [1e300]],
        [[0.5, -1.0, 2.5], [1e-300, -0.0, 3.0]],
        "plain", 3, -0.0, None, False,
    ], ids=[f"payload{i}" for i in (*range(7), *range(8, 17), 18, *range(20, 25))]
        + ["plain", "3", "-0.0", "None", "False"])
    def test_edge_payloads(self, payload):
        assert serialize.dumps(payload) == _oracle(payload)

    @pytest.mark.parametrize("key", [1, 2.5, True, None])
    def test_non_string_key_is_refused(self, key):
        with pytest.raises(TypeError, match="^keys must be str, not "):
            serialize.dumps({"name": 0.5, key: "value"})

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("place", [
        lambda x: x,
        lambda x: {"offset": 0.5, "visibility": x},
        lambda x: [[0.5, -0.0], [x, 1.0], [2.0, x], [1e300, 0.0]],
        lambda x: [[1, 2], [x, 3]],
    ], ids=["scalar", "value", "rows", "int-rows"])
    def test_non_finite_float_is_refused(self, place, x):
        payload = place(x)
        with pytest.raises(ValueError):
            _oracle(payload)
        with pytest.raises(ValueError, match="^Out of range float values are "
                                             "not JSON compliant: -?(nan|inf)$"):
            serialize.dumps(payload)

    def test_unserializable_raises_like_json(self):
        for bad in (np.int64(3), {(1, 2): 0.0}, [[object()]]):
            with pytest.raises(TypeError):
                json.dumps(bad, indent=2)
            with pytest.raises(TypeError):
                serialize.dumps(bad)

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers()
        | FINITE_FLOATS | st.text(max_size=6),
        lambda children: (
            st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=4), children, max_size=4)
            | st.lists(st.lists(st.integers() | FINITE_FLOATS, max_size=3),
                       max_size=4)
        ),
        max_leaves=30,
    ))
    def test_matches_json_indent2(self, payload):
        assert serialize.dumps(payload) == _oracle(payload)


class TestReaderBitExactness:
    @pytest.mark.parametrize("n", WIRE_DIMS)
    def test_matrix_roundtrip_keeps_signed_zeros(self, n):
        rng = np.random.default_rng(200 + n)
        m = haar_unitary(n, rng)
        m.real[0, 0] = -0.0
        m.imag[-1, -1] = -0.0
        m[n // 2, 0] = complex(-0.0, -0.0)
        wire = json.loads(serialize.dumps(serialize.matrix_to_dict(m)))
        back = serialize.matrix_from_dict(wire)
        assert np.array_equal(back, m)
        assert np.array_equal(np.signbit(back.real), np.signbit(m.real))
        assert np.array_equal(np.signbit(back.imag), np.signbit(m.imag))

    @pytest.mark.parametrize("n", WIRE_DIMS)
    def test_state_roundtrip_keeps_signed_zeros(self, n):
        amp = random_state(n, np.random.default_rng(300 + n))
        amp *= abs(amp[0]) / amp[0]  # real first amplitude
        amp.imag[0] = -0.0
        state = StateVector(amp)
        back = serialize.state_from_dict(
            json.loads(serialize.dumps(serialize.state_to_dict(state)))
        )
        assert np.array_equal(back.amplitudes, state.amplitudes)
        assert np.array_equal(np.signbit(back.amplitudes.imag),
                              np.signbit(state.amplitudes.imag))

    def test_integer_components_read_as_floats(self):
        back = serialize.matrix_from_dict(
            {"dim": 2, "entries": [[1, 0], [0, -0.0], [2 ** 53 + 1, 3], [0, 1]]}
        )
        assert back.dtype == complex
        assert back[1, 0] == float(2 ** 53 + 1) + 3j

    def test_number_subclasses_read_like_floats(self):
        back = serialize.matrix_from_dict(
            {"dim": 2, "entries": [[np.float64(0.5), -0.0], [1, 0], [0, 0],
                                   [np.float64(-2.0), 3]]}
        )
        assert np.array_equal(back, np.array([[0.5, 1.0], [0.0, -2.0 + 3j]]))
        assert np.signbit(back.imag[0, 0])

    def test_pairs_to_dict_keeps_signed_zeros(self):
        pairs = serialize.matrix_to_dict(
            np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [1.0, 2j]])
        )["entries"]
        assert [[math.copysign(1.0, x) for x in p] for p in pairs[:2]] == [
            [-1.0, 1.0], [1.0, -1.0]
        ]
        assert all(type(x) is float for p in pairs for x in p)


GOOD = [0.5, -0.25]


class TestReaderRejections:
    @pytest.mark.parametrize("bad, message", [
        ([1.0], "entries[2] must be a [re, im] pair"),
        ([1.0, 2.0, 3.0], "entries[2] must be a [re, im] pair"),
        ((1.0, 2.0), "entries[2] must be a [re, im] pair"),
        ("x", "entries[2] must be a [re, im] pair"),
        ([1.0, "x"], "entries[2] components must be numbers"),
        ([True, 1.0], "entries[2] components must be numbers"),
        ([1.0, None], "entries[2] components must be numbers"),
        ([float("nan"), 0.0], "entries[2] must be finite"),
        ([0.0, float("inf")], "entries[2] must be finite"),
        ([float("-inf"), 0.0], "entries[2] must be finite"),
        ([10 ** 400, 0], "entries[2] must be finite"),
    ])
    def test_message_names_the_bad_entry(self, bad, message):
        entries = [GOOD, GOOD, bad, GOOD]
        with pytest.raises(SerializationError) as exc:
            serialize.matrix_from_dict({"dim": 2, "entries": entries})
        assert str(exc.value) == message

    def test_first_bad_entry_wins(self):
        # A later shape error must not mask an earlier component error.
        entries = [GOOD, [1.0, "x"], [1.0], [float("nan"), 0.0]]
        with pytest.raises(SerializationError,
                           match=r"^entries\[1\] components must be numbers$"):
            serialize.matrix_from_dict({"dim": 2, "entries": entries})
        entries = [GOOD, [float("inf"), 0.0], [1.0], GOOD]
        with pytest.raises(SerializationError,
                           match=r"^entries\[1\] must be finite$"):
            serialize.matrix_from_dict({"dim": 2, "entries": entries})

    def test_overflowing_integer_is_malformed(self):
        huge = int("1" + "0" * 400)
        with pytest.raises(SerializationError, match=r"^entries\[0\] must be finite$"):
            serialize.matrix_from_dict({"dim": 1, "entries": [[huge, 0]]})
        with pytest.raises(SerializationError,
                           match=r"^amplitudes\[1\] must be finite$"):
            serialize.state_from_dict(
                {"dim": 2, "amplitudes": [[1.0, 0.0], [0, -huge]]}
            )

    def test_entries_must_be_a_list(self):
        with pytest.raises(SerializationError,
                           match=r"^entries must be a list of \[re, im\] pairs$"):
            serialize.matrix_from_dict({"dim": 1, "entries": ((1.0, 0.0),)})
