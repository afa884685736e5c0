"""Span recorder that times halfwave from outside, at its public calls.

Nothing under ``src/`` is edited.  Names are replaced in the namespaces that
*call* them (``outer_minimize`` looks up ``inner_maximize`` in
``halfwave.nehari`` at call time, so that is where it is patched), modules
are resolved through ``sys.modules`` (``halfwave.energy`` is the re-exported
function, not the module), and :meth:`Tracer.uninstall` undoes every patch.

Two kinds of boundary are recorded:

* **spans** around layer calls (``nehari.inner_maximize``,
  ``energy.weighted_inner``, ...): name, start, end, parent span and the
  trace id of the workload execution, plus a few attributes read off the
  return value or exception (inner sweeps, outer steps, GMRES status);
* **kernel calls**: the ``numpy.fft``/``scipy.fft`` transforms and the
  nonlinearity family's f, g, F, G, fp, gp.  They number in the tens of
  thousands per solve, so they are aggregated into per-layer counters rather
  than stored one by one.  Their time is still charged to the enclosing span
  as child time, so the layer self times add up to the traced wall time.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import sys
import time
from collections import defaultdict

TRANSFORMS = ("fft", "ifft", "rfft", "irfft")
FREQS = ("fftfreq", "rfftfreq")
FFT_MODULES = ("numpy.fft", "scipy.fft")

# (caller's module, attribute, span name) for every layer boundary the
# workloads reach.  A layer is the span name's prefix.
SPAN_PATCHES = (
    ("halfwave.semiclassical", "concentration_sweep", "semiclassical.concentration_sweep"),
    ("halfwave.semiclassical", "solve_rescaled", "semiclassical.solve_rescaled"),
    ("halfwave.semiclassical", "solve_ground_state", "nehari.solve_ground_state"),
    ("halfwave.semiclassical", "outer_minimize", "nehari.outer_minimize"),
    ("halfwave.semiclassical", "recenter_pair", "diagnostics.recenter_pair"),
    ("halfwave.semiclassical", "pair_norm", "energy.pair_norm"),
    ("halfwave.nehari", "solve_ground_state", "nehari.solve_ground_state"),
    ("halfwave.nehari", "outer_minimize", "nehari.outer_minimize"),
    ("halfwave.nehari", "inner_maximize", "nehari.inner_maximize"),
    ("halfwave.nehari", "_maximize_along_ray", "nehari.ray_search"),
    ("halfwave.nehari", "_newton_polish", "nehari.newton_polish"),
    ("halfwave.nehari", "gmres", "nehari.gmres"),
    ("halfwave.nehari", "energy", "energy.energy"),
    ("halfwave.nehari", "el_residual_norms", "energy.el_residual_norms"),
    ("halfwave.nehari", "nehari_residuals", "energy.nehari_residuals"),
    ("halfwave.nehari", "weighted_inner", "energy.weighted_inner"),
    ("halfwave.nehari", "weighted_norm", "energy.weighted_norm"),
    ("halfwave.nehari", "decay_profile", "diagnostics.decay_profile"),
    ("halfwave.nehari", "pohozaev_residual", "diagnostics.pohozaev_residual"),
    ("halfwave.nehari", "recenter_pair", "diagnostics.recenter_pair"),
    ("halfwave.energy", "weighted_inner", "energy.weighted_inner"),
    ("halfwave.energy", "weighted_norm", "energy.weighted_norm"),
    ("halfwave.energy", "pair_inner", "energy.pair_inner"),
    ("halfwave.energy", "riesz_solve", "energy.riesz_solve"),
    ("halfwave.energy", "phi", "energy.phi"),
    ("halfwave.energy", "ray_derivative", "energy.ray_derivative"),
    ("halfwave.energy", "wminus_riesz", "energy.wminus_riesz"),
    ("halfwave.energy", "cg", "energy.cg"),
)

# family callable -> counter it feeds
FAMILY_KERNELS = {"f": "f_evals", "g": "f_evals", "F": "F_evals", "G": "F_evals",
                  "fp": "fp_evals", "gp": "fp_evals"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "child", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child = 0.0
        self.attrs = {}

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child


def _describe(span, out, err):
    """Attributes read off a layer call's result (out) or exception (err)."""
    best = getattr(err, "best", None) if err is not None else None
    res = out if err is None else best
    name = span.name
    if name == "nehari.inner_maximize":
        span.attrs["sweeps"] = res.inner_iters if res is not None else 0
    elif name == "nehari.outer_minimize":
        span.attrs["steps"] = len(res.trace) if res is not None else 0
        span.attrs["level"] = res.level if res is not None else None
        # a max_outer exit accepted every line search it started
        span.attrs["max_outer"] = res is not None and res.message == "max_outer reached"
    elif name == "nehari.newton_polish" and res is not None:
        span.attrs["newton_steps"] = res[2]
    elif name in ("nehari.gmres", "energy.cg") and res is not None:
        span.attrs["info"] = res[1]
    if err is not None:
        span.attrs["error"] = type(err).__name__


class Tracer:
    """Spans and kernel counters of one workload execution at a time."""

    def __init__(self):
        self._saved = []
        self._wrappers = []
        self._spans_built = False
        self.active = False
        self.written = []  # (trace_id, spans) of finished executions
        self.begin(trace_id=0)

    # -- recording ------------------------------------------------------------

    def begin(self, trace_id):
        self.trace_id = trace_id
        self.spans = []
        self.counts = defaultdict(int)
        self.kernel_time = defaultdict(float)
        self._stack = []

    def finish(self):
        self.written.append((self.trace_id, self.spans))

    def call(self, name, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(span)
        out = err = None
        try:
            out = fn(*args, **kwargs)
            return out
        except BaseException as exc:
            err = exc
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child += span.duration
            _describe(span, out, err)

    def kernel(self, layer, counter, fn, args, kwargs, measure):
        if not self.active:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        dur = time.perf_counter() - start
        if self._stack:
            self._stack[-1].child += dur
        self.kernel_time[layer] += dur
        self.counts[counter] += 1
        self.counts[counter + "_s"] += dur
        measure(self.counts, args, out)
        return out

    def counted_operator(self, op, name):
        """Same operator, but each product adds to the ``<name>.matvecs`` counter."""
        from scipy.sparse.linalg import LinearOperator

        key = name + ".matvecs"

        def matvec(x):
            self.counts[key] += 1
            return op.matvec(x)

        return LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)

    # -- patching ---------------------------------------------------------------

    def install(self):
        """Patch the FFT modules and, once halfwave is imported, its layers.

        The first call comes before ``import halfwave`` so that no module can
        bind an unwrapped transform at import time; later calls also patch
        the layer boundaries.
        """
        if not self._wrappers:
            for modname in FFT_MODULES:
                mod = importlib.import_module(modname)
                for attr in TRANSFORMS:
                    self._wrappers.append((mod, attr, self._fft_wrapper(getattr(mod, attr))))
                for attr in FREQS:
                    self._wrappers.append((mod, attr, self._freq_wrapper(getattr(mod, attr))))
        if not self._spans_built and "halfwave.nehari" in sys.modules:
            self._spans_built = True
            for modname, attr, name in SPAN_PATCHES:
                mod = sys.modules[modname]
                self._wrappers.append((mod, attr, self._span_wrapper(name, getattr(mod, attr))))
        self.uninstall()
        for owner, attr, new in self._wrappers:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        self.active = True

    def uninstall(self):
        """Restore every patched name; wrappers bound elsewhere pass through."""
        self.active = False
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def _span_wrapper(self, name, fn):
        tracer = self
        counted = name in ("nehari.gmres", "energy.cg")

        def wrapped(*args, **kwargs):
            if counted and tracer.active:
                args = (tracer.counted_operator(args[0], name),) + args[1:]
            return tracer.call(name, fn, args, kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def _fft_wrapper(self, fn):
        tracer = self

        def measure(counts, args, out):
            a = args[0]
            counts["fft_points"] += max(getattr(a, "size", 0), out.size)
            counts["fft_bytes"] += getattr(a, "nbytes", 0) + out.nbytes

        def wrapped(*args, **kwargs):
            return tracer.kernel("grids", "fft_calls", fn, args, kwargs, measure)

        wrapped.__wrapped__ = fn
        return wrapped

    def _freq_wrapper(self, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            return tracer.kernel("grids", "fftfreq_calls", fn, args, kwargs, _no_measure)

        wrapped.__wrapped__ = fn
        return wrapped

    def wrap_family(self, fam):
        """Copy of the family whose f, g, F, G, fp, gp are counted kernels."""
        tracer = self
        fields = {}
        for attr, counter in FAMILY_KERNELS.items():
            fn = getattr(fam, attr)

            def wrapped(t, _fn=fn, _counter=counter):
                return tracer.kernel("families", _counter, _fn, (t,), {}, _count_points)

            fields[attr] = wrapped
        return dataclasses.replace(fam, **fields)

    # -- output -----------------------------------------------------------------

    def write(self, path):
        """Write every recorded span as gzipped CSV (times relative to run start)."""
        t0 = min((s[0].start for _, s in self.written if s), default=0.0)
        with gzip.open(path, "wt") as fh:
            fh.write("trace_id,span_id,parent_id,name,start_s,end_s,self_s,attrs\n")
            for trace_id, recorded in self.written:
                ids = {id(s): i for i, s in enumerate(recorded)}
                for i, s in enumerate(recorded):
                    parent = ids[id(s.parent)] if s.parent is not None else -1
                    attrs = ";".join(f"{k}={v}" for k, v in sorted(s.attrs.items()))
                    fh.write(
                        f"{trace_id},{i},{parent},{s.name},{s.start - t0:.9f},"
                        f"{s.end - t0:.9f},{s.self_time:.9f},{attrs}\n"
                    )


def _no_measure(counts, args, out):
    pass


def _count_points(counts, args, out):
    counts["family_points"] += getattr(args[0], "size", 1)


def _distinct(levels, rel=1e-9):
    """Number of clusters among the levels, two levels apart when their
    relative gap exceeds ``rel``."""
    out, last = 0, None
    for lv in sorted(levels):
        if last is None or lv - last > rel * abs(last):
            out += 1
        last = lv
    return out


def layer_metrics(tracer):
    """Per-layer metrics of the execution the tracer has just recorded."""
    c = tracer.counts
    by = defaultdict(list)
    children = defaultdict(list)
    self_time = defaultdict(float, tracer.kernel_time)
    for s in tracer.spans:
        by[s.name].append(s)
        children[id(s.parent)].append(s)
        self_time[s.layer] += s.self_time

    def total(name):
        return sum(s.duration for s in by[name])

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by[name])

    def failed(name, bad=lambda s: False):
        return sum(1 for s in by[name] if "error" in s.attrs or bad(s))

    outer = by["nehari.outer_minimize"]
    trials = accepted = 0
    for s in outer:
        inner_children = sum(1 for k in children[id(s)] if k.name == "nehari.inner_maximize")
        trials += max(inner_children - 1, 0)
        steps = s.attrs["steps"]
        accepted += steps if s.attrs["max_outer"] else max(steps - 1, 0)

    restarts = restarts_failed = useful = 0
    for s in by["nehari.solve_ground_state"]:
        runs = [k for k in children[id(s)] if k.name == "nehari.outer_minimize"]
        restarts += len(runs)
        restarts_failed += sum(1 for k in runs if "error" in k.attrs)
        useful += _distinct([k.attrs["level"] for k in runs if k.attrs["level"] is not None])

    fam_points = c["family_points"]
    m = {
        "grids.fft_calls": c["fft_calls"],
        "grids.fft_points": c["fft_points"],
        "grids.fft_s": c["fft_calls_s"],
        "grids.fft_bytes_computed": c["fft_bytes"],
        "grids.fftfreq_calls": c["fftfreq_calls"],
        "families.f_evals": c["f_evals"],
        "families.F_evals": c["F_evals"],
        "families.fp_evals": c["fp_evals"],
        "families.points": fam_points,
        "families.s": tracer.kernel_time["families"],
        "families.ns_per_point": 1e9 * tracer.kernel_time["families"] / fam_points if fam_points else 0.0,
        "energy.cg_calls": len(by["energy.cg"]),
        "energy.cg_matvecs": c["energy.cg.matvecs"],
        "energy.inner_calls": len(by["energy.weighted_inner"]),
        "energy.inner_s": total("energy.weighted_inner"),
        "nehari.inner_calls": len(by["nehari.inner_maximize"]),
        "nehari.inner_s": total("nehari.inner_maximize"),
        "nehari.inner_sweeps": attr_sum("nehari.inner_maximize", "sweeps"),
        "nehari.inner_failed": failed("nehari.inner_maximize"),
        "nehari.ray_calls": len(by["nehari.ray_search"]),
        "nehari.ray_s": total("nehari.ray_search"),
        "nehari.outer_calls": len(outer),
        "nehari.outer_s": total("nehari.outer_minimize"),
        "nehari.outer_self_s": sum(s.self_time for s in outer),
        "nehari.outer_steps": attr_sum("nehari.outer_minimize", "steps"),
        "nehari.linesearch_trials": trials,
        "nehari.linesearch_accept_ratio": accepted / trials if trials else 0.0,
        "nehari.restarts": restarts,
        "nehari.restarts_failed": restarts_failed,
        "nehari.restart_useful_ratio": useful / restarts if restarts else 0.0,
        "nehari.newton_steps": attr_sum("nehari.newton_polish", "newton_steps"),
        "nehari.polish_s": total("nehari.newton_polish"),
        "nehari.gmres_calls": len(by["nehari.gmres"]),
        "nehari.gmres_matvecs": c["nehari.gmres.matvecs"],
        "nehari.gmres_s": total("nehari.gmres"),
        "nehari.gmres_failed": failed("nehari.gmres", lambda s: s.attrs.get("info", 0) != 0),
        "diagnostics.cert_calls": sum(len(v) for k, v in by.items() if k.startswith("diagnostics.")),
        "diagnostics.cert_s": sum(total(k) for k in by if k.startswith("diagnostics.")),
        "semiclassical.rungs": len(by["semiclassical.solve_rescaled"]),
        "semiclassical.rung_s": total("semiclassical.solve_rescaled"),
        "semiclassical.auto_solve_s": sum(
            s.duration for s in by["nehari.solve_ground_state"]
            if s.parent is not None and s.parent.name == "semiclassical.concentration_sweep"
        ),
        "trace.spans": len(tracer.spans),
        "trace.kernel_calls": c["fft_calls"] + c["fftfreq_calls"] + c["f_evals"]
        + c["F_evals"] + c["fp_evals"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    return m


LAYERS = ("bench", "grids", "families", "energy", "nehari", "diagnostics", "semiclassical")
