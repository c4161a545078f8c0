"""The one overflow rule: every number the package takes is finite and at
most ``MAX_MAGNITUDE`` in magnitude.

At the bound, every computation returns finite numbers or raises an
``EigenschaftError``; one float above it, every door refuses with its noun.
Warnings are errors here, so a numpy overflow warning fails the test.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenschaft.cli import main
from eigenschaft.dynamics import TwoLevelSystem, beat_trace, evolve_h2
from eigenschaft.errors import ConstructionError, DomainError, EigenschaftError
from eigenschaft.interferometer import (
    FringeRecord,
    InterferometerConfig,
    holographic_report,
    recover_state,
    uniform_sweep,
)
from eigenschaft.linalg import MAX_MAGNITUDE, as_square, hermitian_eig
from eigenschaft.operators import DiagSpec, EigenschaftOp, H2Params, hadamard, validate
from eigenschaft.serialize import dumps, matrix_to_dict
from eigenschaft.states import StateVector, decompose_state, superpose

from helpers import random_hermitian, random_state

pytestmark = pytest.mark.filterwarnings("error")

ABOVE = float(np.nextafter(MAX_MAGNITUDE, np.inf))
DIMS = [1, 2, 3, 4, 8, 64]


def numbers(obj):
    """Every number held by a result, through dataclasses, tuples, lists,
    dicts and arrays."""
    if isinstance(obj, np.ndarray):
        yield from obj.ravel().tolist()
    elif isinstance(obj, (int, float, complex, np.number)):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from numbers(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from numbers(value)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from numbers(getattr(obj, f.name))


def finite_result(fn, *args):
    """Call ``fn``; it must return only finite numbers."""
    values = np.array(list(numbers(fn(*args))), dtype=complex)
    assert values.size and np.all(np.isfinite(values))


def finite_or_refused(fn, *args):
    """Call ``fn``; it must return only finite numbers or raise an
    ``EigenschaftError``."""
    try:
        finite_result(fn, *args)
    except EigenschaftError:
        return


def boundary_matrices(n):
    """Hermitian matrices with entries of magnitude exactly MAX_MAGNITUDE,
    alone and mixed with entries of order one."""
    rng = np.random.default_rng(1000 + n)
    units = np.array([1.0, -1.0, 1j, -1j])
    upper = np.triu(rng.choice(units, size=(n, n)), k=1)
    signs = np.diag(rng.choice([1.0, -1.0], size=n))
    mixed = random_hermitian(n, rng)
    mixed[0, -1] = MAX_MAGNITUDE
    mixed[-1, 0] = MAX_MAGNITUDE
    mixed[0, 0] = -MAX_MAGNITUDE
    return {
        "full": np.full((n, n), MAX_MAGNITUDE),
        "signed": MAX_MAGNITUDE * (upper + upper.conj().T + signs),
        "diagonal": MAX_MAGNITUDE * signs,
        "mixed": mixed,
    }


class TestAtTheBound:
    @pytest.mark.parametrize("n", DIMS)
    def test_matrix_paths(self, n):
        for m in boundary_matrices(n).values():
            assert np.max(np.abs(m)) == MAX_MAGNITUDE
            report = validate(m)
            assert np.all(np.isfinite(np.array(list(numbers(report)), dtype=complex)))
            finite_or_refused(hermitian_eig, m)
            for k in range(min(n, 3)):
                finite_result(decompose_state, m, StateVector.basis_state(n, k))
            psi = StateVector(random_state(n, np.random.default_rng(n)))
            finite_result(decompose_state, m, psi)

    @pytest.mark.parametrize("n", [2, 64])
    def test_validate_writes_finite_json(self, capsys, tmp_path, n):
        """The report of a matrix at the bound is JSON without NaN or
        Infinity, with no scan of the report in the command."""
        path = tmp_path / "m.json"
        for m in boundary_matrices(n).values():
            path.write_text(dumps(matrix_to_dict(m)))
            assert main(["validate", str(path)]) == 0
            out, err = capsys.readouterr()
            assert err == ""

            def refuse(constant):
                raise AssertionError(f"{constant} in the report")

            assert json.loads(out, parse_constant=refuse)["dim"] == n

    def test_fringe_paths(self):
        sweep = uniform_sweep(16)
        fringes = [
            np.full(16, MAX_MAGNITUDE),
            MAX_MAGNITUDE * (1.0 + np.cos(sweep)) / 2.0,
            MAX_MAGNITUDE * (np.arange(16) % 2),
            np.where(np.arange(16) == 3, MAX_MAGNITUDE, 0.25),
        ]
        for phases in (sweep, sweep * MAX_MAGNITUDE / (2.0 * np.pi),
                       np.full(16, -MAX_MAGNITUDE)):
            for i1 in fringes:
                fr = FringeRecord(phases, i1, i1[::-1])
                finite_or_refused(recover_state, fr)

    def test_holographic_report(self):
        """A splitter is an involution, so its entries are at most 1; one
        with entries at the bound is refused where it is built."""
        with pytest.raises(DomainError) as exc:
            EigenschaftOp(np.diag([MAX_MAGNITUDE, -MAX_MAGNITUDE]))
        assert str(exc.value) == (
            "not an involution: residual 1.000e+200 exceeds 1e-10"
        )
        sweeps = [uniform_sweep(16), np.linspace(-MAX_MAGNITUDE, MAX_MAGNITUDE, 16)]
        states = [StateVector.normalized([1.0, 1.0]), StateVector.normalized([0.6, 0.8j])]
        for phases in sweeps:
            for sigma in (0.0, 1.0, MAX_MAGNITUDE):
                cfg = InterferometerConfig(hadamard(), phases, sigma)
                for state in states:
                    for seed in (0, 1):
                        finite_or_refused(holographic_report, state, cfg, seed)

    def test_dynamics(self):
        times = [0.0, 1.0, MAX_MAGNITUDE, -MAX_MAGNITUDE]
        for w1, w2 in ((MAX_MAGNITUDE, -MAX_MAGNITUDE), (-MAX_MAGNITUDE, 0.0),
                       (3.0, 0.5)):
            system = TwoLevelSystem(w1, w2, hadamard())
            for t in times:
                finite_or_refused(evolve_h2, system, t)
            finite_or_refused(beat_trace, system, times)


def _system():
    return TwoLevelSystem(1.0, 0.0, hadamard())


#: Each door: its noun, the error it raises, whether it reads complex
#: numbers, and a call that puts ``x`` through it with every other input
#: valid.
DOORS = {
    "as_square": ("matrix entries", DomainError, True,
                  lambda x: as_square([[1.0, x], [0.0, 1.0]])),
    "StateVector": ("amplitudes", DomainError, True,
                    lambda x: StateVector.normalized([x, 1.0])),
    "superpose": ("coefficients", DomainError, True,
                  lambda x: superpose(x, StateVector.basis_state(2, 0),
                                      1.0, StateVector.basis_state(2, 1))),
    "H2Params": ("angles", DomainError, False,
                 lambda x: H2Params(gamma_angle=0.5, delta_phi=x)),
    "DiagSpec": ("phases", ConstructionError, False,
                 lambda x: DiagSpec(dim=3, alphas=(1 / 3,) * 3, trace_sign=1,
                                    phases=(0.0, x))),
    "DiagSpec-alphas": ("alphas", ConstructionError, False,
                        lambda x: DiagSpec(dim=3, alphas=(1 / 3, 1 / 3, x),
                                           trace_sign=1, phases=(0.0, 0.0))),
    "sweep-phases": ("sweep phases", DomainError, False,
                     lambda x: InterferometerConfig(hadamard(), [0.0, x])),
    "sigma": ("shot noise sigma", DomainError, False,
              lambda x: InterferometerConfig(hadamard(), [0.0], x)),
    "fringe-phases": ("phases", DomainError, False,
                      lambda x: FringeRecord([0.0, x], [0.0, 0.0], [0.0, 0.0])),
    "I1": ("I1", DomainError, False,
           lambda x: FringeRecord([0.0, 1.0], [0.0, x], [0.0, 0.0])),
    "I2": ("I2", DomainError, False,
           lambda x: FringeRecord([0.0, 1.0], [0.0, 0.0], [x, 0.0])),
    "TwoLevelSystem": ("frequencies", DomainError, False,
                       lambda x: TwoLevelSystem(x, 0.0, hadamard())),
    "evolve_h2": ("time", DomainError, False, lambda x: evolve_h2(_system(), x)),
    "beat_trace": ("time samples", DomainError, False,
                   lambda x: beat_trace(_system(), [0.0, x])),
}


def refused_by_door(door, x) -> bool:
    """Whether ``x`` is refused by the door with the door's own message; any
    other outcome (a result, or a later check's error) is not a refusal."""
    noun, error, _, call = DOORS[door]
    try:
        call(x)
    except EigenschaftError as exc:
        message = f"{noun} must be finite and at most 1e+100 in magnitude"
        if str(exc) == message:
            assert type(exc) is error
            return True
    return False


NEAR_BOUND = st.sampled_from([
    MAX_MAGNITUDE, -MAX_MAGNITUDE, ABOVE, -ABOVE,
    float(np.nextafter(MAX_MAGNITUDE, 0.0)), np.inf, -np.inf, np.nan,
])
REALS = NEAR_BOUND | st.floats(-1e101, 1e101) | st.floats()
COMPLEXES = (REALS | st.builds(complex, REALS, REALS)
             | st.builds(lambda r, u: r * u, REALS, st.sampled_from([1j, -1j])))


class TestDoors:
    @pytest.mark.parametrize("door", DOORS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_float_above_is_refused(self, door, sign):
        assert refused_by_door(door, sign * ABOVE)
        if DOORS[door][2]:
            assert refused_by_door(door, sign * ABOVE * 1j)

    @pytest.mark.parametrize("door", DOORS)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_bound_passes(self, door, sign):
        assert not refused_by_door(door, sign * MAX_MAGNITUDE)
        if DOORS[door][2]:
            assert not refused_by_door(door, sign * MAX_MAGNITUDE * 1j)

    @pytest.mark.parametrize("door", [d for d in DOORS if not DOORS[d][2]])
    @pytest.mark.parametrize("x", [0.5 + 2j, np.complex128(0.5 + 2j), 1.0 + 0j],
                             ids=["complex", "numpy-complex", "zero-imaginary"])
    def test_real_door_refuses_complex(self, door, x):
        """Converting to float would drop the imaginary part with only a
        ComplexWarning, or fail later with another check's message."""
        noun, error, _, call = DOORS[door]
        with pytest.raises(error) as exc:
            call(x)
        assert type(exc.value) is error
        assert str(exc.value) == f"{noun} must be real"

    @pytest.mark.parametrize("door", DOORS)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_refuses_exactly_outside_the_bound(self, door, data):
        x = data.draw(COMPLEXES if DOORS[door][2] else REALS)
        assert refused_by_door(door, x) == (not np.abs(x) <= MAX_MAGNITUDE)
