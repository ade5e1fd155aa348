"""Per-layer spans recorded from outside the library.

:class:`Tracer` wraps the public functions of each ``hexacomplex`` module
(the layers) and replaces *every* binding of each function that callers
look up: module attributes, names imported into other modules (for
example ``canonical_components`` in algebra, canonical, elementary,
calculus and polyfactor) and the evaluators held in
``calculus.FUNCTIONS``.  Spans live in flat in-memory arrays with their
parent span and command id; :meth:`Tracer.metrics` derives calls, self
time and errors from them, and :meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import sys
import time
from array import array
from functools import wraps

import numpy as np

# layer -> (module, attribute) pairs it wraps; "Class.method" wraps a method.
LAYERS = {
    "algebra.construct": [("algebra", "HexaNumber.__init__")],
    "algebra.mul": [("algebra", "HexaNumber.__mul__")],
    "algebra.inverse": [("algebra", "HexaNumber.inverse")],
    "algebra.to_canonical": [("algebra", "canonical_components")],
    "algebra.from_canonical": [("algebra", "from_canonical_components")],
    "algebra.format": [("algebra", "format_hexa")],
    "transforms.rows": [("_transforms", n) for n in ("canonical_rows", "basis_rows", "rotation_rows")],
    "canonical.rotated_coords": [("canonical", "rotated_coords")],
    "canonical.geometry": [("canonical", "geometry")],
    "elementary.apply": [("elementary", n) for n in ("exp", "ln", "sin", "cos", "sinh", "cosh", "pow_real")],
    "cosexp.cell": [("cosexp", n) for n in ("g6", "f6", "g6_series", "f6_series", "g6_sumform", "f6_sumform")],
    "cosexp.emit_table": [("cosexp", "emit_table")],
    "expressions.parse": [("expressions", "parse")],
    "expressions.evaluate": [("expressions", "evaluate")],
    "polyfactor.roots": [("polyfactor", "component_roots")],
    "polyfactor.factor": [("polyfactor", "factor")],
    "polyfactor.enumerate": [("polyfactor", "enumerate_factorizations")],
    "polyfactor.format": [("polyfactor", "format_factorization")],
    "calculus.circle_path": [("calculus", "circle_path")],
    "calculus.line_integral": [("calculus", "line_integral")],
    "calculus.winding": [("calculus", "winding_number")],
    "calculus.residue": [("calculus", "residue_integral")],
    "cli.build_parser": [("cli", "build_parser")],
    "cli.main": [("cli", "main")],
}

_ENUMERATE = "polyfactor.enumerate"


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.parent = array("q")
        self.command = array("q")
        self.layer = array("h")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self.stack = [-1]
        self.current_command = -1
        self.samples = 0          # circle_path sample points
        self.candidates = 0       # Factorization objects built inside enumerate
        self.results = 0          # factorizations returned by enumerate
        self._enumerating = 0
        self._undo: list = []

    # -- recording ----------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        index = self.names.index(layer)
        clock = time.perf_counter_ns
        parent, command, kind = self.parent, self.command, self.layer
        start, end, error, stack = self.start, self.end, self.error, self.stack
        tracer = self

        @wraps(fn)
        def span(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            command.append(tracer.current_command)
            kind.append(index)
            error.append(0)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error[sid] = 1
                raise
            finally:
                end[sid] = clock()
                stack.pop()

        if layer == "calculus.circle_path":
            @wraps(fn)
            def counted(*args, **kwargs):
                path = span(*args, **kwargs)
                tracer.samples += len(path.samples) - 1
                return path
            return counted
        if layer == _ENUMERATE:
            @wraps(fn)
            def enumerating(*args, **kwargs):
                tracer._enumerating += 1
                try:
                    found = span(*args, **kwargs)
                finally:
                    tracer._enumerating -= 1
                tracer.results += len(found)
                return found
            return enumerating
        return span

    def _replace(self, owner, attr: str, new) -> None:
        """Rebind ``owner.attr`` (a class, a module or a frozen dataclass) until uninstall."""
        original = owner.__dict__[attr]
        if isinstance(owner, type):
            setattr(owner, attr, new)
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            object.__setattr__(owner, attr, new)
            self._undo.append(lambda: object.__setattr__(owner, attr, original))

    def install(self) -> None:
        """Wrap every binding of every layer function (call once per tracer)."""
        modules = [m for name, m in sys.modules.items()
                   if name == "hexacomplex" or name.startswith("hexacomplex.")]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                module = sys.modules[f"hexacomplex.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._replace(cls, method, self._wrap(layer, cls.__dict__[method]))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(layer, original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, name, wrapped)
                for fut in sys.modules["hexacomplex.calculus"].FUNCTIONS.values():
                    if fut.evaluator is original:
                        self._replace(fut, "evaluator", wrapped)
        factorization = sys.modules["hexacomplex.polyfactor"].Factorization
        build = factorization.__dict__["__init__"]
        tracer = self

        def counted_init(obj, *args, **kwargs):
            if tracer._enumerating:
                tracer.candidates += 1
            build(obj, *args, **kwargs)

        self._replace(factorization, "__init__", counted_init)

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict:
        """calls / self_ms / errors per layer, plus the enumeration and sample counters."""
        layer = np.frombuffer(self.layer, dtype=np.int16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = (np.frombuffer(self.end, dtype=np.int64)
                    - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        self_ns = duration - child_time
        count = len(self.names)
        calls = np.bincount(layer, minlength=count)
        self_ms = np.bincount(layer, weights=self_ns, minlength=count) / 1e6
        errors = np.bincount(layer, weights=np.frombuffer(self.error, dtype=np.int8),
                             minlength=count)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_ms"] = float(self_ms[i])
            out[f"{name}.errors"] = int(errors[i])
        out["calculus.samples"] = self.samples
        out[f"{_ENUMERATE}.candidates"] = self.candidates
        out[f"{_ENUMERATE}.results"] = self.results
        out[f"{_ENUMERATE}.useful_ratio"] = (self.results / self.candidates
                                             if self.candidates else 0.0)
        return out

    def save(self, path) -> None:
        """Write every span (parent, command, layer, start/end ns, error) as .npz."""
        np.savez_compressed(
            path, layers=np.array(self.names),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            command=np.frombuffer(self.command, dtype=np.int64),
            layer=np.frombuffer(self.layer, dtype=np.int16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            error=np.frombuffer(self.error, dtype=np.int8))
