"""JSON and CSV wire formats.

Matrices travel as ``{"dim": n, "entries": [[re, im], ...]}`` in row-major
order; state vectors as ``{"dim": n, "amplitudes": [[re, im], ...]}``.
Operator payloads add an integer ``"trace_class"``.  Readers are strict:
wrong-length entry arrays, non-numeric components, non-finite or
out-of-range numbers, and malformed structure all raise
:class:`SerializationError` (the CLI reports it as malformed input, exit 2).

In a payload built here, ``"entries"`` and ``"amplitudes"`` are read-only
``(k, 2)`` float64 arrays: views of the matrix or state, not nested lists.
:func:`dumps` writes such an array as k ``[re, im]`` rows, and
``json.loads(dumps(p))`` gives the plain JSON objects the readers take.

The writer takes payloads only: objects with string keys, lists, strings,
integers, finite floats, booleans, ``None`` and non-empty 2-d float64
arrays.  Its output is byte-identical to ``json.dumps(payload, indent=2,
allow_nan=False, default=np.ndarray.tolist)`` plus a trailing newline; a
non-string key raises ``TypeError`` and a non-finite float ``ValueError``.
``float.__repr__`` is the only float formatter, and most of the writer's
time, so :func:`_emit_array` formats each distinct magnitude of an array
once.  The bytes rely on no symmetry; the speed does.  An n x n matrix
that is Hermitian to the bit, with a real diagonal, has at most
``n^2 + 1`` distinct magnitudes, and the projectors that
:meth:`ProjectorSet.from_columns` builds are such matrices; a matrix read
from a file is written as given.  A matrix is read by one
``np.fromiter`` over its numbers.  CSV numbers are ``float.__repr__`` of
Python floats, written in one formatting pass.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat

import numpy as np

from .dynamics import BeatSample
from .errors import SerializationError
from .interferometer import FringeRecord, HolographicReport
from .operators import (
    EigenschaftOp,
    ProjectorDecomposition,
    ProjectorSet,
    ValidationReport,
)
from .states import Classification, Decomposition, StateVector

_INDENT = "  "
_NUMBER_TYPES = {int, float}
_encode_str = json.encoder.encode_basestring_ascii
_NON_FINITE = "Out of range float values are not JSON compliant: "
_LARGEST = float(np.finfo(float).max)


def dumps(payload) -> str:
    """Stable JSON text: two-space indent, fixed key order, trailing newline.

    The text equals ``json.dumps(payload, indent=2, allow_nan=False,
    default=np.ndarray.tolist) + "\\n"``, and a non-finite float raises
    ``ValueError`` as there; a key that is not a string raises
    ``TypeError``.  With an indent, :mod:`json` falls back to its
    pure-Python encoder, which makes one generator step per number; here
    each array (matrix entries, amplitudes) is written by
    :func:`_emit_array` and everything else is laid out directly.
    """
    return "".join(chunked_dumps(payload))


def chunked_dumps(payload) -> list[str]:
    """The text of :func:`dumps` as the list of pieces it joins, so that a
    writer can send them on without holding the text a second time."""
    out: list[str] = []
    _emit(payload, 0, out)
    out.append("\n")
    return out


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    if "n" in text:
        raise ValueError(_NON_FINITE + text)
    return text


def _key_text(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {key.__class__.__name__}")
    return _encode_str(key)


def _emit(o, level: int, out: list[str]) -> None:
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        _emit_items(zip(repeat(""), o), "[]", level, out)
    elif isinstance(o, dict):
        _emit_items(((_key_text(k) + ": ", v) for k, v in o.items()), "{}", level, out)
    elif isinstance(o, np.ndarray):
        _emit_array(o, level, out)
    else:
        raise TypeError(
            f"Object of type {o.__class__.__name__} is not JSON serializable"
        )


def _emit_items(items, brackets: str, level: int, out: list[str]) -> None:
    """Append a JSON array or object from ``(prefix, value)`` items: the
    prefix is ``""`` for an array element and ``'"key": '`` for a member,
    and ``brackets`` is ``"[]"`` or ``"{}"``."""
    inner = "\n" + _INDENT * (level + 1)
    sep = opening = brackets[0] + inner
    for prefix, value in items:
        out.append(sep + prefix)
        _emit(value, level + 1, out)
        sep = "," + inner
    out.append(brackets if sep is opening else "\n" + _INDENT * level + brackets[1])


def _emit_array(a: np.ndarray, level: int, out: list[str]) -> None:
    """Append the text of ``a.tolist()`` for a non-empty 2-d float64
    array ``a``; any other array raises ``TypeError``.

    The text of a float ``x`` is ``"-"`` when its sign bit is set, followed
    by ``repr(abs(x))``: ``repr`` itself for every finite float, ``-0.0``
    included.  So one argsort of the magnitudes finds the distinct ones,
    each is formatted once, and every number takes its magnitude's text.
    A nan or an infinity sorts last; it raises ``ValueError`` naming the
    first non-finite number in row-major order.

    The layout is one gather.  A table holds the ``m`` magnitude texts,
    then each of the three separators that can precede a number, bare and
    with ``"-"`` appended: nothing before the first number, ``","`` and the
    number indent within a row, and the row break.  Each number takes two
    slots of an index array in row-major order, its separator's (the sign
    bit adding one) and its magnitude's, and the body is the join of the
    table gathered at that array.  The text is appended as three pieces,
    with no second copy of the body.
    """
    if a.ndim != 2 or a.dtype != np.float64 or not a.size:
        raise TypeError(f"an array payload is 2-d float64 and not empty, "
                        f"not {a.dtype} of shape {a.shape}")
    flat = a.ravel()
    magnitudes = np.abs(flat)
    order = magnitudes.argsort()
    ranked = magnitudes[order]
    if not ranked[-1] <= _LARGEST:
        bad = flat[~np.isfinite(flat)][0]
        raise ValueError(_NON_FINITE + float.__repr__(float(bad)))
    first = np.empty(ranked.size, dtype=bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    texts = list(map(float.__repr__, ranked[first].tolist()))
    first[0] = False  # cumsum then numbers the groups from 0
    outer = "\n" + _INDENT * level
    row = outer + _INDENT
    num = row + _INDENT
    comma = "," + num
    wrap = row + "]," + row + "[" + num
    # Slots m, m + 2 and m + 4 hold the separators before the first number,
    # within a row and at a row break; the slot above each adds the "-".
    m = len(texts)
    table = np.fromiter(texts + ["", "-", comma, comma + "-", wrap, wrap + "-"],
                        object)
    idx = np.empty((flat.size, 2), dtype=np.intp)
    seps = idx[:, 0]
    seps[:] = m + 2
    seps[a.shape[1]::a.shape[1]] = m + 4
    seps[0] = m
    seps += np.signbit(flat)
    idx[:, 1][order] = first.cumsum()
    out.append("[" + row + "[" + num)
    out.append("".join(table[idx.ravel()].tolist()))
    out.append(row + "]" + outer + "]")


def _require_dict(d, what: str) -> dict:
    if not isinstance(d, dict):
        raise SerializationError(f"{what} payload must be a JSON object")
    return d


def _require_dim(d, what: str) -> int:
    dim = d.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SerializationError(f"{what} needs a positive integer 'dim'")
    return dim


def _pairs_to_complex(raw, count: int, what: str) -> np.ndarray:
    """The values of ``raw``: ``count`` lists of two finite ints or floats
    (subclasses such as ``np.float64`` included, ``bool`` not), read in one
    pass; otherwise the error names the first entry that is not."""
    if not isinstance(raw, list):
        raise SerializationError(f"{what} must be a list of [re, im] pairs")
    if len(raw) != count:
        raise SerializationError(
            f"{what} has {len(raw)} entries, expected {count}"
        )
    if (_all_of(set(map(type, raw)), {list}) and set(map(len, raw)) <= {2}
            and _all_of(set(map(type, chain.from_iterable(raw))), _NUMBER_TYPES)):
        try:
            pairs = np.fromiter(chain.from_iterable(raw), float, 2 * count)
        except OverflowError:
            pairs = None
        if pairs is not None and np.isfinite(pairs).all():
            # float64 pairs viewed as complex128 keep every bit, -0.0 included.
            return pairs.view(complex)
    for k, pair in enumerate(raw):
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise SerializationError(f"{what}[{k}] must be a [re, im] pair")
        if not _all_of(set(map(type, pair)), _NUMBER_TYPES):
            raise SerializationError(f"{what}[{k}] components must be numbers")
        try:
            finite = all(map(math.isfinite, pair))
        except OverflowError:
            finite = False
        if not finite:
            raise SerializationError(f"{what}[{k}] must be finite")


def _all_of(types: set, allowed: set) -> bool:
    """Whether each of ``types`` is in ``allowed`` or, not being ``bool``,
    subclasses one; the exact test first, as it is the fast one."""
    return types <= allowed or all(
        issubclass(t, tuple(allowed)) and t is not bool for t in types)


def _complex_to_pairs(values) -> np.ndarray:
    """The read-only ``(k, 2)`` float64 view of ``values`` as [re, im] rows,
    in row-major order; it shares memory with ``values`` when that is a
    contiguous complex array."""
    flat = np.asarray(values, dtype=complex).ravel()
    pairs = flat.view(float).reshape(-1, 2)
    pairs.flags.writeable = False
    return pairs


def matrix_to_dict(m) -> dict:
    """Serialize a square complex matrix."""
    mat = np.asarray(m, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SerializationError("only square matrices are serialized")
    return {"dim": int(mat.shape[0]), "entries": _complex_to_pairs(mat)}


def matrix_from_dict(d) -> np.ndarray:
    """Parse the matrix payload, rejecting wrong-length entry arrays."""
    d = _require_dict(d, "matrix")
    dim = _require_dim(d, "matrix")
    flat = _pairs_to_complex(d.get("entries"), dim * dim, "entries")
    return flat.reshape(dim, dim)


def state_to_dict(state: StateVector) -> dict:
    return {"dim": state.dim, "amplitudes": _complex_to_pairs(state.amplitudes)}


def state_from_dict(d) -> StateVector:
    d = _require_dict(d, "state")
    dim = _require_dim(d, "state")
    amp = _pairs_to_complex(d.get("amplitudes"), dim, "amplitudes")
    return StateVector(amp)


def op_to_dict(op: EigenschaftOp) -> dict:
    out = matrix_to_dict(op.matrix)
    out["trace_class"] = op.trace_class
    return out


def family_to_dict(ops) -> dict:
    """An operator family as ``{"members": [<operator>, ...]}``, in order."""
    return {"members": [op_to_dict(op) for op in ops]}


def op_from_dict(d) -> EigenschaftOp:
    """Parse an operator payload and admit it through
    :meth:`EigenschaftOp.from_matrix`.

    A present ``trace_class`` must agree with the one inferred from the
    matrix.
    """
    op = EigenschaftOp.from_matrix(matrix_from_dict(d))
    declared = d.get("trace_class")
    if declared is not None:
        if isinstance(declared, bool) or not isinstance(declared, int):
            raise SerializationError("'trace_class' must be an integer")
        if declared != op.trace_class:
            raise SerializationError(
                f"declared trace_class {declared} does not match the "
                f"matrix (inferred {op.trace_class})"
            )
    return op


def projector_set_to_dict(ps: ProjectorSet) -> dict:
    return {
        "dim": ps.dim,
        "projectors": [matrix_to_dict(p) for p in ps.projectors],
    }


def projector_set_from_dict(d) -> ProjectorSet:
    d = _require_dict(d, "projector set")
    dim = _require_dim(d, "projector set")
    raw = d.get("projectors")
    if not isinstance(raw, list):
        raise SerializationError("'projectors' must be a list of matrices")
    mats = [matrix_from_dict(item) for item in raw]
    if any(m.shape[0] != dim for m in mats):
        raise SerializationError("projector dimensions disagree with 'dim'")
    return ProjectorSet(tuple(mats))


def projector_decomposition_to_dict(pd: ProjectorDecomposition) -> dict:
    out = projector_set_to_dict(pd.projectors)
    out["signs"] = [int(s) for s in pd.signs]
    return out


def validation_report_to_dict(report: ValidationReport) -> dict:
    """Flat object; the complex trace splits into ``trace_re``/``trace_im``."""
    out = {
        "dim": report.dim,
        "hermiticity_residual": report.hermiticity_residual,
        "unitarity_residual": report.unitarity_residual,
        "involution_residual": report.involution_residual,
        "trace_re": report.trace.real,
        "trace_im": report.trace.imag,
        "trace_class": report.trace_class,
        "trace_class_distance": report.trace_class_distance,
        "trace_class_suspect": report.trace_class_suspect,
    }
    out.update(report.relation_residuals)
    return out


def decomposition_to_dict(dec: Decomposition) -> dict:
    return {
        "mean": float(dec.mean),
        "dispersion": float(dec.dispersion),
        "residual_state": (
            None if dec.residual_state is None else state_to_dict(dec.residual_state)
        ),
    }


def classification_to_dict(c: Classification) -> dict:
    return dict(vars(c))


def holographic_report_to_dict(report: HolographicReport) -> dict:
    """One object per report field; every field is a flat dataclass."""
    return {name: dict(vars(part)) for name, part in vars(report).items()}


def _csv_text(header: str, values: list) -> str:
    """``header``, then ``values``, Python floats in row-major order under the
    header's columns, a row per line, in one ``%`` format."""
    cols = header.count(",") + 1
    line = "%r," * (cols - 1) + "%r\n"
    return (header + "\n" + line * (len(values) // cols)) % tuple(values)


def beat_trace_csv(samples: list[BeatSample]) -> str:
    """CSV with columns ``t,delta_phi``; each value is written as a float."""
    return _csv_text("t,delta_phi", [*map(float, chain.from_iterable(samples))])


def fringe_csv(fr: FringeRecord) -> str:
    """CSV with columns ``phi,I1,I2``."""
    return _csv_text("phi,I1,I2", np.stack(
        (fr.phases, fr.intensity_port1, fr.intensity_port2), axis=1).ravel().tolist())
