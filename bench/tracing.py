"""Span recording around evidim's layer boundaries, from outside the program.

For the length of a traced run, :func:`installed` rebinds the public name
that each calling module looks up (``evidim.cli.mass_from_json``,
``evidim.dimension.deng_entropy``, the ``MassFunction.from_assignments``
classmethod, ...) to a wrapper that records a span, and restores every
original binding afterwards.  No file of the program changes.  Functions
called once per focal set or per cardinality row (``Frame.subset``,
``ProfileRow.from_ratio``) are left alone: wrapping them would measure the
wrapper.

Spans are kept in memory as ``(op, name, start, end, parent)`` tuples and
written out by the caller when the run ends.  A name that no longer exists
at the measured commit is skipped and reported as absent.
"""
from __future__ import annotations

import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

# (owner, attribute, span name).  The owner is a module, or "module:Class"
# for a method.  Each binding is the one its caller resolves at call time.
TARGETS = (
    ("evidim.cli", "mass_from_json", "core.mass_from_json"),
    ("evidim.cli", "information_dimension", "dimension.information_dimension"),
    ("evidim.cli", "brute_force_report", "oracle.brute_force_report"),
    ("evidim.cli", "compare_reports", "oracle.compare_reports"),
    ("evidim.cli", "run_convergence", "experiments.run_convergence"),
    ("evidim.cli", "detect_limit", "experiments.detect_limit"),
    ("evidim.cli", "render_table", "experiments.render"),
    ("evidim.cli", "render_plot_data", "experiments.render"),
    ("evidim.dimension", "deng_entropy", "entropy.deng_entropy"),
    ("evidim.dimension", "split_scale", "dimension.split_scale"),
    ("evidim.dimension", "deng_entropy_profile", "entropy.deng_entropy_profile"),
    ("evidim.dimension", "split_scale_profile", "dimension.split_scale_profile"),
    ("evidim.experiments", "family_profile", "families.profile"),
    ("evidim.experiments", "information_dimension_profile",
     "dimension.information_dimension_profile"),
    ("evidim.core:MassFunction", "from_assignments", "core.from_assignments"),
    ("evidim.core:MassFunction", "to_profile", "core.to_profile"),
    ("evidim.core:CardinalityProfile", "from_rows", "core.profile_build"),
    ("evidim.core:CardinalityProfile", "to_mass", "core.to_mass"),
    # the package-level names the benchmark's own roundtrip op calls
    ("evidim", "family_profile", "families.profile"),
    ("evidim", "mass_to_json", "core.mass_to_json"),
    ("evidim", "mass_from_json", "core.mass_from_json"),
    ("evidim", "information_dimension_profile", "dimension.information_dimension_profile"),
)

# Counts taken from a span's return value: span name -> (counter, function).
COUNTERS = {
    "families.profile": ("families.rows", lambda profile: len(profile.rows)),
}


class Tracer:
    """Records nested spans of one thread; ``op`` tags the spans that follow."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = {}
        self.op = 0
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (self.op, name, start, end, parent)
        counter = COUNTERS.get(name)
        if counter is not None:
            try:
                self.counts[counter[0]] = self.counts.get(counter[0], 0) + counter[1](result)
            except (AttributeError, TypeError):
                pass
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time covered by
        direct children (spans of one thread nest without overlap)."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (_, name, start, end, _), covered in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start - covered)
        return totals

    def total_times(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for _, name, start, end, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals


def _owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


@contextmanager
def installed(tracer: Tracer):
    """Rebind every target that exists; yields the span names left absent."""
    saved = []
    present: set[str] = set()
    try:
        for spec, attribute, name in TARGETS:
            owner = _owner(spec)
            raw = None if owner is None else inspect.getattr_static(owner, attribute, None)
            if isinstance(raw, classmethod):
                replacement = classmethod(tracer.wrap(name, raw.__func__))
            elif callable(raw):
                replacement = tracer.wrap(name, raw)
            else:
                continue
            saved.append((owner, attribute, raw, attribute in vars(owner)))
            setattr(owner, attribute, replacement)
            present.add(name)
        yield sorted({name for _, _, name in TARGETS} - present)
    finally:
        for owner, attribute, raw, own in reversed(saved):
            if own:
                setattr(owner, attribute, raw)
            else:  # inherited: drop the shadowing wrapper
                delattr(owner, attribute)
