"""Span recording around jachalf's public functions, installed from outside.

`install` rebinds the module attributes and class attributes listed in
LAYERS to recording wrappers, including every other jachalf module's
imported name for the same function (`halving.add`, `jacobian.xgcd`, ...),
and `uninstall` puts the originals back.  The source tree is not edited.

Several attributes can share one metric name (`-` is counted as
`field.add`, `double` as `jacobian.add`).  A call made while the innermost
open span already has that name is not a span of its own: `a / b` calls
`b.inverse()`, and that belongs to the one `field.inverse` span.

Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
import time

# metric name -> where it lives: ("func", module, attr) or ("method", module, class, attrs)
LAYERS = {
    "field.ctx_new": ("func", "jachalf.field", "ctx_new"),
    "field.mul": ("method", "jachalf.field", "FieldElement", ("__mul__", "__rmul__")),
    "field.add": (
        "method",
        "jachalf.field",
        "FieldElement",
        ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    ),
    "field.inverse": (
        "method",
        "jachalf.field",
        "FieldElement",
        ("inverse", "__truediv__", "__rtruediv__"),
    ),
    "field.pow": ("method", "jachalf.field", "FieldElement", ("__pow__",)),
    "field.is_square": ("method", "jachalf.field", "FieldElement", ("is_square",)),
    "field.sqrt": ("method", "jachalf.field", "FieldElement", ("sqrt",)),
    "poly.mul": ("method", "jachalf.poly", "Poly", ("__mul__", "__rmul__")),
    "poly.divmod": (
        "method",
        "jachalf.poly",
        "Poly",
        ("__divmod__", "__floordiv__", "__mod__"),
    ),
    "poly.xgcd": ("func", "jachalf.poly", "xgcd"),
    "poly.gcd": ("func", "jachalf.poly", "gcd"),
    "poly.elementary_symmetric": ("func", "jachalf.poly", "elementary_symmetric"),
    "poly.from_roots": ("func", "jachalf.poly", "from_roots"),
    "jacobian.add": ("func", "jachalf.jacobian", ("add", "double")),
    "jacobian.scalar_mul": ("func", "jachalf.jacobian", "scalar_mul"),
    "jacobian.to_class": ("func", "jachalf.jacobian", "to_class"),
    "jacobian.torsion_scan": ("func", "jachalf.jacobian", "torsion_scan"),
    "jacobian.curve_new": ("func", "jachalf.jacobian", "curve_new"),
    "jacobian.Point": ("method", "jachalf.jacobian", "Point", ("__init__",)),
    "halving.halve": ("func", "jachalf.halving", "halve"),
    "halving.sqrt_tuples": ("func", "jachalf.halving", "sqrt_tuples"),
    "halving.mumford_from_tuple": ("func", "jachalf.halving", "mumford_from_tuple"),
    "rationality.class_is_rational": ("func", "jachalf.rationality", "class_is_rational"),
    "rationality.divisible_by_two": ("func", "jachalf.rationality", "divisible_by_two"),
    "rationality.all_halves_rational": (
        "func",
        "jachalf.rationality",
        "all_halves_rational",
    ),
    "cli.main": ("func", "jachalf.cli", "main"),
    "cli.load_curve": ("func", "jachalf.cli", "load_curve"),
    "cli.parse_point": ("func", "jachalf.cli", "parse_point"),
}


def _jachalf_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "jachalf" or name.startswith("jachalf.")
    ]


def snapshot():
    """Every attribute of every loaded jachalf module and of its classes."""
    seen = []
    for mod in _jachalf_modules():
        for attr, val in vars(mod).items():
            seen.append((mod.__name__, attr, val))
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for cattr, cval in vars(val).items():
                    seen.append((f"{mod.__name__}.{attr}", cattr, cval))
    return seen


def same_snapshot(a, b):
    return len(a) == len(b) and all(
        x[0] == y[0] and x[1] == y[1] and x[2] is y[2] for x, y in zip(a, b)
    )


class Recorder:
    """Open-span stack, per-name totals and the first `span_cap` spans."""

    def __init__(self, span_cap):
        self.stack = []
        self.stats = {name: [0, 0.0, 0.0] for name in LAYERS}  # calls, self s, incl s
        self.spans = []
        self.span_cap = span_cap
        self.n_spans = 0
        self.op_id = -1
        self.active = False
        self.t0 = time.perf_counter()
        self._saved = []

    def _wrap(self, name, fn):
        rec = self
        stack = self.stack
        stats = self.stats[name]
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not rec.active or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else None
            frame = [name, 0.0, rec.n_spans]
            rec.n_spans += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur - frame[1]
                stats[2] += dur
                if stack:
                    stack[-1][1] += dur
                if len(spans) < rec.span_cap:
                    spans.append((rec.op_id, frame[2], parent, name, start, end))

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        modules = _jachalf_modules()
        for name, where in LAYERS.items():
            if where[0] == "func":
                _, modname, attrs = where
                home = sys.modules[modname]
                for attr in (attrs,) if isinstance(attrs, str) else attrs:
                    fn = vars(home)[attr]
                    wrapper = self._wrap(name, fn)
                    for mod in modules:
                        for a, v in list(vars(mod).items()):
                            if v is fn:
                                self._saved.append((mod, a, fn))
                                setattr(mod, a, wrapper)
            else:
                _, modname, clsname, attrs = where
                cls = vars(sys.modules[modname])[clsname]
                for attr in attrs:
                    fn = vars(cls)[attr]
                    self._saved.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(name, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def per_op(self, n_ops):
        """(calls per op, self ms per op, inclusive ms per op) for each name."""
        return {
            name: (c / n_ops, s * 1e3 / n_ops, i * 1e3 / n_ops)
            for name, (c, s, i) in self.stats.items()
        }

    def dump_spans(self):
        return [
            {
                "op": op,
                "id": sid,
                "parent": parent,
                "name": name,
                "start_us": round((start - self.t0) * 1e6, 3),
                "end_us": round((end - self.t0) * 1e6, 3),
            }
            for op, sid, parent, name, start, end in self.spans
        ]
