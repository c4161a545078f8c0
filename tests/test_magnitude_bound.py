"""The one overflow rule: every number the package takes is finite and at
most ``MAX_MAGNITUDE`` in magnitude.

At the bound, every computation returns finite numbers or raises an
``EigenschaftError``; one float above it, every door refuses with its noun.
Warnings are errors here, so a numpy overflow warning fails the test.
"""

import dataclasses
import json
import warnings

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
from eigenschaft.operators import (
    DiagSpec,
    EigenschaftOp,
    H2Params,
    ProjectorSet,
    build_h2,
    hadamard,
    validate,
    wrap_phase,
)
from eigenschaft.serialize import dumps, matrix_to_dict
from eigenschaft.states import StateVector, decompose_state, superpose

from helpers import random_hermitian, random_state

#: Every warning is an error, but for the one Hypothesis's failure report
#: raises on import (as in pyproject.toml), so a failing property reports as
#: a failure here too, not as pytest's INTERNALERROR.
pytestmark = [
    pytest.mark.filterwarnings("error"),
    pytest.mark.filterwarnings(
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"),
]

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
    "ProjectorSet": ("matrix entries", DomainError, True,
                     lambda x: ProjectorSet(([[1.0, x], [0.0, 0.0]],
                                             [[0.0, 0.0], [0.0, 1.0]]))),
}


def narrow_calls(t):
    """Each door with every number it takes of the float type ``t``, the
    rest valid."""
    e0, e1 = StateVector.basis_state(2, 0), StateVector.basis_state(2, 1)
    fringe = lambda: FringeRecord(*[np.linspace(0.0, 1.0, 4, dtype=t)] * 3)
    diag = dict(dim=3, alphas=(1.0, 0.0, 0.0), trace_sign=1, phases=(0.0, 0.0))
    return {
        "as_square": lambda: as_square(np.eye(2, dtype=t)),
        "StateVector": lambda: StateVector.normalized(np.ones(2, dtype=t)),
        "superpose": lambda: superpose(t(1), e0, t(1), e1),
        "H2Params": lambda: H2Params(t(0.5), t(0.0)),
        "DiagSpec": lambda: DiagSpec(**{**diag, "phases": np.array([0.5, 1.0], t)}),
        "DiagSpec-alphas": lambda: DiagSpec(**{**diag, "alphas": np.array([1, 0, 0], t)}),
        "sweep-phases": lambda: InterferometerConfig(hadamard(), uniform_sweep(8).astype(t)),
        "sigma": lambda: InterferometerConfig(hadamard(), [0.0], t(0.5)),
        "fringe-phases": fringe,
        "I1": fringe,
        "I2": fringe,
        "TwoLevelSystem": lambda: TwoLevelSystem(t(1.0), t(0.5), hadamard()),
        "evolve_h2": lambda: evolve_h2(_system(), t(0.5)),
        "beat_trace": lambda: beat_trace(_system(), np.linspace(0.0, 1.0, 4, dtype=t)),
        "ProjectorSet": lambda: ProjectorSet(
            tuple(np.diag(row) for row in np.eye(2, dtype=t))),
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
    @pytest.mark.parametrize("x", ["0.5", None], ids=["string", "None"])
    def test_door_refuses_non_numbers(self, door, x):
        """A cast to float or complex would read "0.5" as a number or fail
        with numpy's error; the door refuses both in its own terms."""
        noun, error, _, call = DOORS[door]
        with pytest.raises(error) as exc:
            call(x)
        assert type(exc.value) is error
        assert str(exc.value) == f"{noun} must be numeric"

    @pytest.mark.parametrize("door", DOORS)
    @pytest.mark.parametrize("t", [np.float32, np.float16])
    def test_narrow_floats_are_admitted(self, door, t):
        """Compared in the input's own type, the bound 1e100 overflows a
        float32 or float16 with a RuntimeWarning, an error here."""
        calls = narrow_calls(t)
        assert calls.keys() == DOORS.keys()
        calls[door]()

    @pytest.mark.parametrize("t", [np.float32, np.float16])
    def test_narrow_floats_are_computed_in_float64(self, t):
        """The doors keep the float64 values they admit.  Computed in single
        precision, ``build_h2`` and ``evolve_h2`` made involution residuals
        of 1e-8 to 2e-4, and the operator gate refused their own results."""
        params = H2Params(t(0.5), t(0.25))
        assert (params.gamma_angle, params.delta_phi) == (0.5, 0.25)
        assert type(params.gamma_angle) is float
        assert np.array_equal(build_h2(params).matrix,
                              build_h2(H2Params(0.5, 0.25)).matrix)
        system = TwoLevelSystem(t(1.0), t(0.3), hadamard())
        assert system.detuning == 1.0 - float(t(0.3))
        assert np.array_equal(evolve_h2(system, t(0.5)).matrix,
                              evolve_h2(system, 0.5).matrix)

    @pytest.mark.parametrize("door", DOORS)
    @pytest.mark.parametrize("x", [[0.5], np.array([0.5, 0.2]), []],
                             ids=["list", "array", "empty"])
    def test_door_refuses_a_sequence_for_a_number(self, door, x):
        """Where a door takes one number, a sequence is refused with its
        error and noun: nested beside other numbers it is ragged (not
        numeric), and alone at a scalar door it is not scalar."""
        noun, error, _, call = DOORS[door]
        with pytest.raises(error) as exc:
            call(x)
        assert type(exc.value) is error
        alone = door in ("sigma", "evolve_h2")
        assert str(exc.value) == f"{noun} must be {'scalar' if alone else 'numeric'}"

    @pytest.mark.parametrize("door", ["H2Params", "TwoLevelSystem", "evolve_h2",
                                      "sigma", "superpose"])
    def test_scalar_doors_refuse_sequences(self, door):
        """Every number of a scalar door given as an equal-length sequence:
        numpy's ``TypeError`` or ``ValueError`` escaped, or (``H2Params``)
        ``build_h2`` refused a 3-d matrix."""
        pair = np.array([0.5, 0.2])
        e0, e1 = StateVector.basis_state(2, 0), StateVector.basis_state(2, 1)
        call, message = {
            "H2Params": (lambda: build_h2(H2Params(pair, pair)), "angles"),
            "TwoLevelSystem": (lambda: TwoLevelSystem(pair, pair, hadamard()),
                               "frequencies"),
            "evolve_h2": (lambda: evolve_h2(_system(), [0.5]), "time"),
            "sigma": (lambda: InterferometerConfig(hadamard(), [0.0], [0.1]),
                      "shot noise sigma"),
            "superpose": (lambda: superpose(pair, e0, pair, e1), "coefficients"),
        }[door]
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == f"{message} must be scalar"

    @pytest.mark.parametrize("door", [
        "EigenschaftOp", "StateVector", "DiagSpec", "validate", "hermitian_eig",
        "ProjectorSet", "FringeRecord", "decompose_state",
    ])
    def test_ragged_nesting_is_not_numeric(self, door):
        """Sequences nested to unequal depths raised numpy's ``ValueError``
        (``inhomogeneous shape``) at every array door."""
        ragged = [[1.0, 0.0], [0.0]]
        call, noun, error = {
            "EigenschaftOp": (lambda: EigenschaftOp(ragged), "matrix entries",
                              DomainError),
            "StateVector": (lambda: StateVector([1.0, [0.0]]), "amplitudes",
                            DomainError),
            "DiagSpec": (lambda: DiagSpec(3, [1.0, [0.0], 0.0], 1, (0.0, 0.0)),
                         "alphas", ConstructionError),
            "validate": (lambda: validate(ragged), "matrix entries", DomainError),
            "hermitian_eig": (lambda: hermitian_eig(ragged), "matrix entries",
                              DomainError),
            "ProjectorSet": (lambda: ProjectorSet((ragged, np.eye(2))),
                             "matrix entries", DomainError),
            "FringeRecord": (lambda: FringeRecord([0.0, 1.0], ragged, [0.0, 0.0]),
                             "I1", DomainError),
            "decompose_state": (lambda: decompose_state(
                ragged, StateVector.basis_state(2, 0)), "matrix entries",
                DomainError),
        }[door]
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error
        assert str(exc.value) == f"{noun} must be numeric"

    @pytest.mark.parametrize("door", DOORS)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_refuses_exactly_outside_the_bound(self, door, data):
        x = data.draw(COMPLEXES if DOORS[door][2] else REALS)
        assert refused_by_door(door, x) == (not np.abs(x) <= MAX_MAGNITUDE)


def typed(value, t):
    """``value`` as a numpy array of type ``t`` where numpy can make one,
    else ``value`` itself; ``t`` None keeps the plain Python value."""
    if t is None:
        return value
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            return np.array(value, dtype=t)
        except (ValueError, TypeError, OverflowError):
            return value


#: Leaves of every kind a caller might pass: truth values, integers past
#: int64, floats past the bound and non-finite, complex numbers, strings,
#: ``None``.
LEAVES = st.one_of(
    st.booleans(),
    st.integers(-10, 10) | st.sampled_from([2**63, -2**70]),
    st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, 1e101, -1e101]),
    st.complex_numbers(),
    st.text(max_size=2),
    st.none(),
)
TYPES = st.sampled_from([None, bool, int, np.float16, np.float32, np.float64,
                         complex, str, object])
#: Lists or arrays of random depth whose items are drawn independently, so
#: lengths and depths are ragged as often as not.
NESTED = st.builds(typed, st.recursive(
    LEAVES, lambda items: st.builds(typed, st.lists(items, max_size=3), TYPES),
    max_leaves=8), TYPES)


#: The calls of ``DOORS``, and ``wrap_phase``, whose door has no magnitude
#: bound: a phase derived from admitted inputs can pass ``MAX_MAGNITUDE``.
DOOR_CALLS = {**{door: entry[3] for door, entry in DOORS.items()},
              "wrap_phase": wrap_phase}


@pytest.mark.parametrize("door", DOOR_CALLS)
@settings(deadline=None)
@given(x=NESTED)
def test_door_fails_only_in_its_own_terms(door, x):
    """Whatever is passed where a number goes, a door returns or raises an
    ``EigenschaftError``; never a numpy or builtin error, nor a warning.
    The example budget is the profile's (tests/conftest.py)."""
    try:
        DOOR_CALLS[door](x)
    except EigenschaftError:
        pass
