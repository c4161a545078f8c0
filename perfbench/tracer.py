"""Spans and exact counts around the package's public functions.

The tracer wraps functions from outside, at every module attribute through
which a caller looks them up (``eigenschaft.operators.hermitian_eig`` and
``eigenschaft.states.hermitian_eig`` are both replaced, for instance), and at
the class attribute for constructors and classmethods.  No file of the
package changes.  Spans stay in memory; self times and counts are computed
from them after the run.

A span that would open directly inside a span of the same name is folded
into its parent: ``serialize.write`` covers ``op_to_dict`` together with the
``matrix_to_dict`` it calls, and counts as one call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("linalg", "operators", "states", "dynamics", "interferometer",
          "serialize", "cli")

#: Exact counts reported besides ``<name>.calls``.
COUNTS = ("serialize.bytes_in", "serialize.bytes_out",
          "linalg.hermitian_eig.work_n3", "interferometer.samples",
          "dynamics.samples")


def _eig_work(tracer, args, result):
    n = int(np.shape(args[0])[0])
    tracer.counts["linalg.hermitian_eig.work_n3"] += n ** 3


def _bytes_out(tracer, args, result):
    if isinstance(result, str):  # dumps and the CSV writers emit ASCII
        tracer.counts["serialize.bytes_out"] += len(result)


def _fringe_samples(tracer, args, result):
    tracer.counts["interferometer.samples"] += int(result.phases.size)


def _beat_samples(tracer, args, result):
    tracer.counts["dynamics.samples"] += len(result)


def _evolve_samples(tracer, args, result):
    tracer.counts["dynamics.samples"] += 1


def _serialize_names(suffixes) -> list[str]:
    module = sys.modules["eigenschaft.serialize"]
    return sorted(name for name, value in vars(module).items()
                  if callable(value) and not name.startswith("_")
                  and getattr(value, "__module__", None) == module.__name__
                  and name.endswith(suffixes))


def targets() -> list[tuple[str, str, str, str, object]]:
    """``(span name, where, owner, attribute, count hook)`` for every
    wrapped function.  ``where`` is ``module`` for a function replaced in
    every module that holds it, ``method`` for a plain class attribute and
    ``classmethod`` for a classmethod."""
    out = [
        ("linalg.hermitian_eig", "module", "eigenschaft.linalg", "hermitian_eig", _eig_work),
        ("operators.to_projectors", "module", "eigenschaft.operators", "to_projectors", None),
        ("operators.ProjectorSet", "method", "eigenschaft.operators:ProjectorSet",
         "__post_init__", None),
        ("operators.complement_family", "module", "eigenschaft.operators",
         "complement_family", None),
        ("operators.from_matrix", "classmethod", "eigenschaft.operators:EigenschaftOp",
         "from_matrix", None),
        ("operators.validate", "module", "eigenschaft.operators", "validate", None),
        ("states.DensityMatrix", "method", "eigenschaft.states:DensityMatrix",
         "__post_init__", None),
        ("states.classify", "module", "eigenschaft.states", "classify", None),
        ("states.decompose_state", "module", "eigenschaft.states", "decompose_state", None),
        ("interferometer.run_interferometer", "module", "eigenschaft.interferometer",
         "run_interferometer", _fringe_samples),
        ("interferometer.recover_state", "module", "eigenschaft.interferometer",
         "recover_state", None),
        ("dynamics.beat_trace", "module", "eigenschaft.dynamics", "beat_trace", _beat_samples),
        ("dynamics.evolve_h2", "module", "eigenschaft.dynamics", "evolve_h2", _evolve_samples),
        ("cli.main", "module", "eigenschaft.cli", "main", None),
    ]
    out += [("serialize.write", "module", "eigenschaft.serialize", name, _bytes_out)
            for name in _serialize_names(("_to_dict", "_csv", "dumps"))]
    out += [("serialize.read", "module", "eigenschaft.serialize", name, None)
            for name in _serialize_names(("_from_dict",))]
    return out


def span_names() -> list[str]:
    return list(dict.fromkeys(name for name, *_ in targets()))


class Tracer:
    """Collects spans ``[name, start, end, parent, request]`` and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = [name, time.perf_counter(), None, parent, self.request]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self.counts[name + ".calls"] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "eigenschaft" or key.startswith("eigenschaft.")]
        for name, where, owner, attr, hook in targets():
            if where == "module":
                original = getattr(sys.modules[owner], attr)
                wrapped = self.wrap(name, original, hook)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapped)
            else:
                module_name, class_name = owner.split(":")
                cls = getattr(sys.modules[module_name], class_name)
                original = cls.__dict__[attr]
                if where == "classmethod":
                    wrapped = classmethod(self.wrap(name, original.__func__, hook))
                else:
                    wrapped = self.wrap(name, original, hook)
                self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children
        (single-threaded, so children never overlap)."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def totals(self, scale=None) -> dict[str, float]:
        """``<name>.self_s`` summed over all spans of each name, each span's
        self time multiplied by ``scale[request]`` when given."""
        totals = Counter()
        for span, own in zip(self.spans, self.self_times()):
            totals[span[0] + ".self_s"] += own * (1.0 if scale is None else scale[span[4]])
        return dict(totals)

    def exact_counts(self) -> dict[str, int]:
        names = [name + ".calls" for name in span_names()] + list(COUNTS)
        return {key: int(self.counts.get(key, 0)) for key in names}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for (name, start, end, parent, request), own in zip(self.spans,
                                                              self.self_times()):
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "self_s": own}) + "\n")
