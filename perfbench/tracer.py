"""Per-layer tracing of tworow from outside the package.

``install`` replaces the layer-boundary functions and methods of the
tworow modules with wrappers.  A spanned name records one span per call,
(name, start, end, parent), in memory; a counted name, used for the hot
``MPoly`` and ``TPoly`` arithmetic, only bumps a counter.  Modules bind
names such as ``solve_rational`` by ``from ... import``, so every
namespace that holds the original object is patched, not only the one
that defines it.

Nothing here runs at import time; only the traced worker calls
``install``.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

# Layers timed with spans, as "module.attribute"; a dotted attribute
# names a method.  Each one's self time is a per-layer metric.
SPANNED = (
    "cli.main",
    "springer.localize",
    "springer.straighten_by_solve",
    "springer.straighten_by_rewrite",
    "springer.kernel_ideal_comparisons",
    "springer.ordinary_presentation_check",
    "springer.fixed_points_bruteforce",
    "springer.verify_relations",
    "springer.basis_image_matrix",
    "linalg.solve_rational",
    "linalg.SparseExactRREF.add_row",
    "linalg.integer_det_bareiss",
    "groebner.buchberger",
    "groebner.normal_form",
    "groebner.ideal_equal",
    "groebner.quotient_dimension",
    "polynomials.parse_poly",
    "tableaux.enumerate_standard_tableaux",
)

# Hot names that are only counted, as (layer, attribute to wrap); the
# reflected operators are aliases of these and are counted with them.
COUNTED = (
    ("polynomials.MPoly.mul", "polynomials.MPoly.__mul__"),
    ("polynomials.MPoly.add", "polynomials.MPoly.__add__"),
    ("polynomials.MPoly.times_monomial", "polynomials.MPoly.times_monomial"),
    ("tpoly.TPoly.mul", "tpoly.TPoly.__mul__"),
    ("tpoly.TPoly.add", "tpoly.TPoly.__add__"),
    ("tableaux.filling_from_monomial", "tableaux.filling_from_monomial"),
)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.outcomes: Counter = Counter()  # name -> calls with a useful result
        self.sizes: Counter = Counter()  # name -> summed result size
        self._stack: list[int] = []
        self._active = [True]

    @contextlib.contextmanager
    def paused(self):
        """Run the body untraced, e.g. the benchmark's own result checks."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    def spanned(self, name: str, fn, outcome=None):
        spans, stack, clock, active = self.spans, self._stack, self.clock, self._active

        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if outcome is not None:
                outcome(self, name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        counts, active = self.counts, self._active

        def wrapper(*args, **kwargs):
            if active[0]:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def _rank_raised(tracer, name, result):
    tracer.outcomes[name] += bool(result)


def _reduced_to_zero(tracer, name, result):
    tracer.outcomes[name] += not result


def _basis_len(tracer, name, result):
    tracer.sizes[name] += len(result.generators)


OUTCOMES = {
    "linalg.SparseExactRREF.add_row": _rank_raised,
    "groebner.normal_form": _reduced_to_zero,
    "groebner.buchberger": _basis_len,
}


def _tworow_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "tworow" or name.startswith("tworow.")) and m is not None]


def _replace_everywhere(original, replacement, modules) -> int:
    """Rebind every module-level name that holds ``original``."""
    patched = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched += 1
    return patched


def _replace_method(cls, original, replacement) -> int:
    """Rebind every class attribute that holds ``original``, which covers
    aliases such as ``__radd__ = __add__``."""
    patched = 0
    for attr, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, attr, replacement)
            patched += 1
    return patched


def install(tracer: Tracer) -> None:
    """Wrap every SPANNED and COUNTED name of the imported tworow package."""
    import tworow.cli  # noqa: F401  (loads every submodule)

    modules = _tworow_modules()

    def patch(target, make):
        module_name, path = target.split(".", 1)
        module = sys.modules[f"tworow.{module_name}"]
        if "." in path:
            cls_name, method = path.split(".")
            cls = getattr(module, cls_name)
            original = vars(cls)[method]
            patched = _replace_method(cls, original, make(original))
        else:
            original = getattr(module, path)
            patched = _replace_everywhere(original, make(original), modules)
        if not patched:
            raise RuntimeError(f"nothing to patch for tworow.{target}")

    for name in SPANNED:
        patch(name, lambda fn, name=name: tracer.spanned(name, fn, OUTCOMES.get(name)))
    for name, target in COUNTED:
        patch(target, lambda fn, name=name: tracer.counted(name, fn))


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per name: (calls, self seconds).  A span's self time is its
    duration minus the part of its interval that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered
    return {name: (calls, secs) for name, (calls, secs) in out.items()}
