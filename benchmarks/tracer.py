"""In-memory span tracer that instruments ``revflow`` from the outside.

``instrument`` wraps, for the duration of a ``with`` block:

* every public function (name without a leading underscore) defined in a
  ``revflow`` module, under the span name ``<module>.<function>``;
* every other module-global reference to those same function objects, so
  names imported into ``revflow.flow``, ``revflow.cli``,
  ``revflow.hypersurface`` (and ``config``, which builds sweep spaces) are
  traced where they are called;
* the public method ``AmbientSpace.eval_fh``;
* the ``warp`` callable of every space the workload builds or that an
  ``ambient`` constructor returns (span ``ambient.warp``).

Nothing under ``src/`` is edited.  A name a later change removes is simply
never wrapped: its layer metrics read 0 and ``absent`` lists it, so a
refactor cannot crash the benchmark.

A span is ``(name, start, end, parent, n)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``n`` is an optional count a probe takes
from the call (radial points for ``warp``, records for ``flow.run``).
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("ambient", "bounds", "cli", "cmc", "config", "expressions", "flow",
           "hypersurface", "svgplot")

_GEOMETRY = ("hypersurface.curvature_field", "hypersurface.averaged_mean_curvature",
             "hypersurface.lateral_area", "hypersurface.curve_length")
_CENSUS = ("hypersurface.critical_point_count", "hypersurface.critical_points")
_QUADRATURE = ("bounds.beta", "bounds.delta")
_PARSE = ("config.load_config", "config.parse_config")
_WRITES = ("flow.write_history_csv", "hypersurface.save_profile_csv",
           "svgplot.write_line_plot", "flow.write_summary_json")


def _points(args, result):
    return int(getattr(args[0], "size", 1)) if args else 0


def _records(args, result):
    return len(getattr(result, "history", ()))


PROBES = {"ambient.warp": _points, "flow.run": _records}


class Tracer:
    """Records nested spans of traced calls made on the current thread."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.wrapped = set()

    def wrap(self, name, fn):
        if getattr(fn, "_bench_span", None) is not None:
            return fn
        spans = self.spans
        stack = self._stack
        probe = PROBES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n = probe(args, result) if probe is not None else 0
                spans[idx] = (name, start, end, parent, n)

        traced._bench_span = name
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        self.wrapped.add(name)
        return traced

    def wrap_space(self, space):
        """Copy of ``space`` whose ``warp`` records ``ambient.warp`` spans."""
        return dataclasses.replace(space, warp=self.wrap("ambient.warp", space.warp))

    def absent(self):
        """Span names the per-layer metrics read that nothing provided."""
        expected = {name for names in SOURCES.values() for name in names}
        return sorted(expected - self.wrapped)


def _revflow_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "revflow" or name.startswith("revflow."))]


@contextmanager
def instrument(tracer):
    """Install the wrappers described in the module docstring; undo on exit."""
    replacements = {}
    for short in MODULES:
        try:
            mod = importlib.import_module(f"revflow.{short}")
        except ImportError:
            continue
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrapper = tracer.wrap(f"{short}.{name}", obj)
                if short == "ambient":
                    wrapper = _space_returning(tracer, wrapper)
                replacements[obj] = wrapper

    undo = []
    for mod in _revflow_modules():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replacements:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacements[value])

    space_cls = getattr(sys.modules.get("revflow.ambient"), "AmbientSpace", None)
    eval_fh = getattr(space_cls, "eval_fh", None)
    if eval_fh is not None:
        undo.append((space_cls, "eval_fh", eval_fh))
        space_cls.eval_fh = tracer.wrap("ambient.eval_fh", eval_fh)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def _space_returning(tracer, wrapper):
    # ambient constructors hand out spaces whose warp is traced as well
    space_cls = getattr(sys.modules.get("revflow.ambient"), "AmbientSpace", None)
    if space_cls is None:
        return wrapper

    def construct(*args, **kwargs):
        out = wrapper(*args, **kwargs)
        return tracer.wrap_space(out) if isinstance(out, space_cls) else out

    construct._bench_span = wrapper._bench_span
    construct.__wrapped__ = wrapper
    return construct


def layer_metrics(spans):
    """Per-layer metrics from a list of spans, normalised per ``flow.run``.

    Times are inclusive span durations in seconds unless named ``self``.
    Returns ``(metrics, present)`` where ``present`` is the set of span names
    seen, so callers can mark layers the workload never touched.
    """
    count = defaultdict(int)
    total = defaultdict(float)
    under_run = defaultdict(lambda: [0, 0.0])   # direct children of flow.run
    child_time = defaultdict(float)             # per parent index
    quad_points = 0
    outer_total = defaultdict(float)            # groups whose spans can nest
    groups = {name: group for group in (_PARSE, _WRITES, _QUADRATURE)
              for name in group}
    names = [s[0] for s in spans]
    present = set(names)

    for name, start, end, parent, n in spans:
        dur = end - start
        count[name] += 1
        total[name] += dur
        if parent >= 0:
            child_time[parent] += dur
            pname = names[parent]
            if pname == "flow.run":
                cell = under_run[name]
                cell[0] += 1
                cell[1] += dur
            if name == "ambient.warp" and pname in _QUADRATURE:
                quad_points += n
        group = groups.get(name)
        if group is not None and not _has_ancestor_in(spans, parent, group):
            outer_total[group] += dur

    runs = count["flow.run"]
    per = 1.0 / runs if runs else 0.0
    run_self = sum(end - start - child_time[i]
                   for i, (name, start, end, _, _) in enumerate(spans) if name == "flow.run")
    records = sum(s[4] for s in spans if s[0] == "flow.run")
    steps = under_run["ambient.warp"][0] - runs
    diag = sum(cell[1] for name, cell in under_run.items()
               if name.startswith("hypersurface."))
    rtd = count["cli.run_to_directory"]

    metrics = {
        "ambient.warp_calls": count["ambient.warp"] * per,
        "ambient.warp_s": total["ambient.warp"] * per,
        "ambient.fh_calls": count["ambient.eval_fh"] * per,
        "ambient.fh_s": total["ambient.eval_fh"] * per,
        "ambient.validate_s": total["ambient.validate_space"] * per,
        "hypersurface.volume_calls": count["hypersurface.enclosed_volume"] * per,
        "hypersurface.volume_s": total["hypersurface.enclosed_volume"] * per,
        "hypersurface.geometry_s": sum(total[k] for k in _GEOMETRY) * per,
        "hypersurface.census_s": sum(total[k] for k in _CENSUS) * per,
        "bounds.beta_s": outer_total[_QUADRATURE] * per,
        "bounds.quad_points": quad_points * per,
        "bounds.compute_bounds_s": total["bounds.compute_bounds"] * per,
        "flow.steps": steps * per,
        "flow.records": records * per,
        "flow.self_s": run_self * per,
        "flow.step_us": 1e6 * run_self / steps if steps > 0 else 0.0,
        "flow.diagnostics_s": diag * per,
        "flow.projection_s": under_run["ambient.eval_fh"][1] * per,
        "flow.projection_fh_calls_per_step":
            under_run["ambient.eval_fh"][0] / steps if steps > 0 else 0.0,
        "cli.run_s": total["cli.run_to_directory"] / rtd if rtd else 0.0,
        "cli.parse_s": outer_total[_PARSE] * per,
        "cli.write_s": outer_total[_WRITES] * per,
    }
    return metrics, present


def _has_ancestor_in(spans, parent, group):
    while parent >= 0:
        if spans[parent][0] in group:
            return True
        parent = spans[parent][3]
    return False


# the span names each per-layer metric reads; a metric none of whose names
# occurred is "not applicable" on that workload
SOURCES = {
    "ambient.warp_calls": ("ambient.warp",),
    "ambient.warp_s": ("ambient.warp",),
    "ambient.fh_calls": ("ambient.eval_fh",),
    "ambient.fh_s": ("ambient.eval_fh",),
    "ambient.validate_s": ("ambient.validate_space",),
    "hypersurface.volume_calls": ("hypersurface.enclosed_volume",),
    "hypersurface.volume_s": ("hypersurface.enclosed_volume",),
    "hypersurface.geometry_s": _GEOMETRY,
    "hypersurface.census_s": _CENSUS,
    "bounds.beta_s": _QUADRATURE,
    "bounds.quad_points": _QUADRATURE,
    "bounds.compute_bounds_s": ("bounds.compute_bounds",),
    "flow.steps": ("flow.run",),
    "flow.records": ("flow.run",),
    "flow.self_s": ("flow.run",),
    "flow.step_us": ("flow.run",),
    "flow.diagnostics_s": ("flow.run",),
    "flow.projection_s": ("flow.run",),
    "flow.projection_fh_calls_per_step": ("flow.run",),
    "cli.run_s": ("cli.run_to_directory",),
    "cli.parse_s": _PARSE,
    "cli.write_s": _WRITES,
    "cli.bytes_written": ("cli.run_to_directory",),
}
