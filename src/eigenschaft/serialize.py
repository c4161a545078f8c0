"""JSON and CSV wire formats.

Matrices travel as ``{"dim": n, "entries": [[re, im], ...]}`` in row-major
order; state vectors as ``{"dim": n, "amplitudes": [[re, im], ...]}``.
Operator payloads add an integer ``"trace_class"``.  Readers are strict:
wrong-length entry arrays, non-numeric components, non-finite or
out-of-range numbers, and malformed structure all raise
:class:`SerializationError` (the CLI reports it as malformed input, exit 2).

The writer takes payloads only: objects with string keys, lists, strings,
integers, finite floats, booleans and ``None``.  Its output is
byte-identical to ``json.dumps(payload, indent=2, allow_nan=False)`` plus
a trailing newline; a non-string key raises ``TypeError`` and a non-finite
float ``ValueError``.  ``float.__repr__`` is the only float formatter, and
most of the writer's time: each matrix or state is written by one ``repr``
pass over its numbers and a few joins.  Each matrix's text is one string
in the output list until :func:`dumps` joins the list, so a payload's peak
memory is about twice its text plus one matrix's transient strings.  A
matrix is read by one ``np.fromiter`` over its numbers.
"""

from __future__ import annotations

import json
from itertools import chain

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


def dumps(payload) -> str:
    """Stable JSON text: two-space indent, fixed key order, trailing newline.

    The text equals ``json.dumps(payload, indent=2, allow_nan=False) +
    "\\n"``, and a non-finite float raises ``ValueError`` as there; a key
    that is not a string raises ``TypeError``.  With an indent, :mod:`json`
    falls back to its pure-Python encoder, which makes one generator step
    per number; here each list of float rows (matrix entries, amplitudes)
    is written by :func:`_emit_number_rows` in one ``float.__repr__`` pass
    and a few joins, and everything else is laid out directly.
    """
    out: list[str] = []
    _emit(payload, 0, out)
    out.append("\n")
    return "".join(out)


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
        _emit_list(o, level, out)
    elif isinstance(o, dict):
        _emit_dict(o, level, out)
    else:
        raise TypeError(
            f"Object of type {o.__class__.__name__} is not JSON serializable"
        )


def _emit_list(items, level: int, out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    if _emit_number_rows(items, level, out):
        return
    inner = "\n" + _INDENT * (level + 1)
    sep = "[" + inner
    for item in items:
        out.append(sep)
        _emit(item, level + 1, out)
        sep = "," + inner
    out.append("\n" + _INDENT * level + "]")


def _emit_dict(d, level: int, out: list[str]) -> None:
    if not d:
        out.append("{}")
        return
    inner = "\n" + _INDENT * (level + 1)
    sep = "{" + inner
    for key, value in d.items():
        out.append(sep + _key_text(key) + ": ")
        _emit(value, level + 1, out)
        sep = "," + inner
    out.append("\n" + _INDENT * level + "}")


def _emit_number_rows(items, level: int, out: list[str]) -> bool:
    """Append the indented text of a list of equal-length, non-empty lists
    of floats and return True; return False, appending nothing, for any
    other list, which the generic path then writes.

    One ``float.__repr__`` pass covers every number.  Its ``TypeError``
    sends ints, bools, None, strings and nested lists to the generic path.
    A ``"n"`` in the text (``nan``, ``inf``) raises ``ValueError``, as a
    non-finite float does anywhere in a payload.  The text is appended as
    three pieces, with no second copy of the body.  The per-number and per-row strings live
    only during the call: about 165 bytes a number at peak against the
    body's 37 for an n=64 matrix (``tracemalloc``).
    """
    if set(map(type, items)) != {list}:
        return False
    widths = set(map(len, items))
    if len(widths) != 1 or 0 in widths:
        return False
    try:
        texts = list(map(float.__repr__, chain.from_iterable(items)))
    except TypeError:
        return False
    outer = "\n" + _INDENT * level
    row = outer + _INDENT
    num = row + _INDENT
    rows = map(("," + num).join, zip(*[iter(texts)] * widths.pop()))
    body = (row + "]," + row + "[" + num).join(rows)
    if "n" in body:
        raise ValueError(_NON_FINITE + next(t for t in texts if "n" in t))
    out.append("[" + row + "[" + num)
    out.append(body)
    out.append(row + "]" + outer + "]")
    return True


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
    if not isinstance(raw, list):
        raise SerializationError(f"{what} must be a list of [re, im] pairs")
    if len(raw) != count:
        raise SerializationError(
            f"{what} has {len(raw)} entries, expected {count}"
        )
    # Bulk checks on exact types first.  Anything else, a bad entry or a
    # valid but unusual one such as a float subclass, takes the scan, which
    # names the first bad entry.
    if (set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}
            and set(map(type, chain.from_iterable(raw))) <= _NUMBER_TYPES):
        try:
            pairs = np.fromiter(chain.from_iterable(raw), float, 2 * count)
        except OverflowError:
            pairs = None
        if pairs is not None and np.isfinite(pairs).all():
            # float64 pairs viewed as complex128 keep every bit, -0.0 included.
            return pairs.view(complex)
    return _scan_pairs(raw, what)


def _scan_pairs(raw: list, what: str) -> np.ndarray:
    """Entry-by-entry reader; raises at the first bad entry, by index."""
    values = np.empty(len(raw), dtype=complex)
    for k, pair in enumerate(raw):
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise SerializationError(
                f"{what}[{k}] must be a [re, im] pair"
            )
        re, im = pair
        for comp in (re, im):
            if isinstance(comp, bool) or not isinstance(comp, (int, float)):
                raise SerializationError(
                    f"{what}[{k}] components must be numbers"
                )
        try:
            z = complex(float(re), float(im))
        except OverflowError:
            raise SerializationError(f"{what}[{k}] must be finite") from None
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            raise SerializationError(f"{what}[{k}] must be finite")
        values[k] = z
    return values


def _complex_to_pairs(values) -> list[list[float]]:
    flat = np.asarray(values, dtype=complex).ravel()
    return flat.view(float).reshape(-1, 2).tolist()


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


def beat_trace_csv(samples: list[BeatSample]) -> str:
    """CSV with columns ``t,delta_phi``."""
    lines = ["t,delta_phi"]
    lines += [f"{s.t!r},{s.delta_phi!r}" for s in samples]
    return "\n".join(lines) + "\n"


def fringe_csv(fr: FringeRecord) -> str:
    """CSV with columns ``phi,I1,I2``."""
    lines = ["phi,I1,I2"]
    lines += [
        f"{float(p)!r},{float(a)!r},{float(b)!r}"
        for p, a, b in zip(fr.phases, fr.intensity_port1, fr.intensity_port2)
    ]
    return "\n".join(lines) + "\n"
