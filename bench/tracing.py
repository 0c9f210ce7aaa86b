"""Per-layer tracing from outside the library.

``Tracer`` wraps the public functions listed in ``TARGETS``.  A module-level
function is rebound in every ``crosscap`` module that holds it, because
``pipeline``, ``verify``, ``report``, ``cli`` and ``crosscap/__init__`` each
keep their own ``from .x import f`` binding; a method is replaced on its
class under every alias (``__rmul__`` is ``__mul__``).  Uninstalling puts
every original object back.

While a job span is open, each wrapped call appends one span (name, start,
end, parent span, job id) to in-memory arrays; outside a job the wrappers
call straight through.  Self time is a span's duration minus the durations
of its child spans, so the self times of one job sum to the job's duration.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from array import array
from contextlib import contextmanager
from fractions import Fraction

#: Metric prefix and the attribute of ``crosscap.<module>`` that is wrapped.
TARGETS = (
    ("series.mul", "series", "UniSeries.__mul__"),
    ("series.add", "series", "UniSeries.__add__"),
    ("series.compose_bi", "series", "compose_bi"),
    ("series.reciprocal", "series", "reciprocal"),
    ("series.sqrt_series", "series", "sqrt_series"),
    ("series.valuation", "series", "valuation"),
    ("series.bimul", "series", "BiSeries.__mul__"),
    ("model.build_umbrella", "model", "build_umbrella"),
    ("model.build_curve", "model", "build_curve"),
    ("model.image_curve", "model", "image_curve"),
    ("model.normal_field_raw", "model", "normal_field_raw"),
    ("model.classify_tangency", "model", "classify_tangency"),
    ("frame.frame_factors", "frame", "frame_factors"),
    ("frame.darboux_frame", "frame", "darboux_frame"),
    ("frame.curvature_series", "frame", "curvature_series"),
    ("frame.curvature_numerators", "frame", "curvature_numerators"),
    ("frame.divergence_report", "frame", "divergence_report"),
    ("frame.closed_form_reference", "frame", "closed_form_reference"),
    ("frame.kappa_tilde_series", "frame", "kappa_tilde_series"),
    ("invariants.top_invariants", "invariants", "top_invariants"),
    ("invariants.projection_tangency", "invariants", "projection_tangency"),
    ("invariants.self_intersection", "invariants", "self_intersection"),
    ("invariants.contour_deviation", "invariants", "contour_deviation"),
    ("developable.osculating_developable", "developable", "osculating_developable"),
    ("developable.osculating_director", "developable", "osculating_director"),
    ("developable.delta_invariant", "developable", "delta_invariant"),
    ("developable.classify_EF", "developable", "classify_EF"),
    ("pipeline.analyze", "pipeline", "analyze"),
    ("report.report_from_analysis", "report", "report_from_analysis"),
    ("report.render_report", "report", "render_report"),
    ("config.parse_config", "config", "parse_config"),
    ("verify.run_sweep", "verify", "run_sweep"),
    ("verify.verify_fixture", "verify", "verify_fixture"),
    ("verify.compare_reports", "verify", "compare_reports"),
    ("verify.render_rows", "verify", "render_rows"),
    ("obj.sample_surface_patch", "obj", "sample_surface_patch"),
    ("obj.sample_curve_polyline", "obj", "sample_curve_polyline"),
    ("obj.sample_ruled_surface", "obj", "sample_ruled_surface"),
    ("obj.obj_mesh_text", "obj", "obj_mesh_text"),
    ("obj.obj_polyline_text", "obj", "obj_polyline_text"),
    ("obj.write_obj", "obj", "write_obj"),
    ("cli.main", "cli", "main"),
)

#: Targets that call no other target at the seed commit: their total time
#: equals their self time, so only ``calls`` and ``self_s`` are reported.
LEAVES = frozenset(
    {
        "series.mul",
        "series.add",
        "series.reciprocal",
        "series.sqrt_series",
        "series.valuation",
        "series.bimul",
        "model.build_umbrella",
        "model.build_curve",
        "frame.closed_form_reference",
        "report.render_report",
        "config.parse_config",
        "verify.compare_reports",
        "verify.render_rows",
        "obj.sample_surface_patch",
        "obj.sample_curve_polyline",
        "obj.sample_ruled_surface",
        "obj.obj_mesh_text",
        "obj.obj_polyline_text",
        "obj.write_obj",
    }
)

#: A call that raises out of these targets counts as "not applicable":
#: ``analyze`` catches the error and reports the section as not applicable.
ERROR_COUNTERS = {
    "invariants.top_invariants": "invariants.not_applicable",
    "developable.osculating_developable": "developable.not_applicable",
}

#: Counts recorded at the layer boundaries, with their units.
COUNTERS = {
    "series.mul.out_len_sum": "count",
    "series.mul.out_bits_max": "bits",
    "invariants.not_applicable": "count",
    "developable.not_applicable": "count",
    "obj.bytes_written": "bytes",
}

JOB_SPAN = "job"
#: Traced against untraced time per pass, measured by the worker.
OVERHEAD = "trace.overhead"


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, _ in TARGETS:
        units[name + ".calls"] = "count"
        if name not in LEAVES:
            units[name + ".total_s"] = "s"
        units[name + ".self_s"] = "s"
    units.update(COUNTERS)
    units[OVERHEAD] = "ratio"
    return units


class Tracer:
    """Wraps the targets while installed and records spans of open jobs."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS] + [JOB_SPAN]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_job = array("q")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list = []
        self._job_id = -1
        self._patches: list = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "crosscap" or n.startswith("crosscap.")]
        try:
            for name, module, attr in TARGETS:
                owner = sys.modules["crosscap." + module]
                cls_name, _, meth = attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    holders = [cls]
                else:
                    original = getattr(owner, attr)
                    holders = modules
                wrapper = self._wrap(name, original)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, key, original))
                            setattr(holder, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self.name_ids[name]
        stack = self._stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, jobs = self.span_parent, self.span_job
        clock = time.perf_counter_ns
        error_counter = ERROR_COUNTERS.get(name)
        after = {"series.mul": self._count_mul, "obj.write_obj": self._count_obj}.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            jobs.append(tracer._job_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if error_counter is not None:
                    tracer.counters[error_counter] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_mul(self, args, result) -> None:
        coeffs = result.coeffs
        self.counters["series.mul.out_len_sum"] += len(coeffs)
        if coeffs and isinstance(coeffs[0], Fraction):
            bits = max(c.numerator.bit_length() + c.denominator.bit_length() for c in coeffs)
            if bits > self.counters["series.mul.out_bits_max"]:
                self.counters["series.mul.out_bits_max"] = bits

    def _count_obj(self, args, result) -> None:
        self.counters["obj.bytes_written"] += os.path.getsize(args[0])

    @contextmanager
    def job(self, job_id: int):
        """Open the root span of one job; wrapped calls inside it are recorded."""
        if self._stack:
            raise RuntimeError("jobs do not nest")
        idx = len(self.span_start)
        self._job_id = job_id
        self.span_name.append(self.name_ids[JOB_SPAN])
        self.span_parent.append(-1)
        self.span_job.append(job_id)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.span_end[idx] = time.perf_counter_ns()
            self._stack.pop()
            self._job_id = -1

    # -- results ------------------------------------------------------------

    def self_times(self) -> array:
        """Self time of every span: its duration minus its children's durations."""
        out = array("q", (e - s for s, e in zip(self.span_start, self.span_end)))
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                out[parent] -= self.span_end[i] - self.span_start[i]
        return out

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass, plus the boundary counters."""
        n = len(self.names)
        calls, total, self_ns = [0] * n, [0] * n, [0] * n
        for i, (nid, own) in enumerate(zip(self.span_name, self.self_times())):
            calls[nid] += 1
            total[nid] += self.span_end[i] - self.span_start[i]
            self_ns[nid] += own
        out = {}
        for name in metric_units():
            if name == OVERHEAD:
                continue
            prefix, _, kind = name.rpartition(".")
            nid = self.name_ids.get(prefix)
            if name in COUNTERS:
                value = self.counters[name]
                out[name] = value if name.endswith("_max") else value / passes
            elif kind == "calls":
                out[name] = calls[nid] / passes
            elif kind == "total_s":
                out[name] = total[nid] / passes / 1e9
            else:
                out[name] = self_ns[nid] / passes / 1e9
        return out

    def write_spans(self, path: str) -> None:
        """Spans as gzip'd tab-separated rows: id, name, start, end, parent, job."""
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\tjob\n")
            for i, row in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent, self.span_job)
            ):
                nid, start, end, parent, job = row
                fh.write(f"{i}\t{self.names[nid]}\t{start}\t{end}\t{parent}\t{job}\n")
