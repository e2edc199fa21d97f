"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``install`` patches the
public entry points of each ``cmtower`` module at run time, wherever the
name is bound (a name imported with ``from ... import`` is a separate
binding in the importing module and is patched there too).  The program's
source is not touched.

Each span keeps (name, start, end, parent, job).  Spans live in memory and
are written out by ``write`` when the benchmark ends.  A layer's self time
is its span's duration minus the part covered by its child spans; it is
accumulated as spans close, so the per-layer metrics need no second pass.
Very frequent cheap operations (residue construction, tower-element
products, Galois-group products, wedge steps) are counted, not spanned:
their time stays in the enclosing span's self time.  ``EisensteinTower.build``
is called on every tower-element product and almost always finds its levels
built; it gets a span only when it has a level to build.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array

# (span name, module, attribute path, extra) for every spanned entry point.
# The attribute path is looked up in the named module; ``Class.method``
# patches the class attribute, which every binding of the class shares.
SPANS = (
    ("padic.series_mul", "padic", "TruncSeries.__mul__", "pairs"),
    ("padic.series_compose", "padic", "TruncSeries.compose", None),
    ("padic.ring_det", "padic", "ring_det", "dim"),
    ("padic.poly_divmod", "padic", "PadicPoly.divmod_unit", None),
    ("padic.newton_polygon", "padic", "newton_polygon", None),
    ("padic.hensel_root", "padic", "hensel_root", None),
    ("lubin_tate.group_law", "lubin_tate", "group_law", None),
    ("lubin_tate.endo", "lubin_tate", "endo", None),
    ("lubin_tate.solve_intertwine", "lubin_tate", "solve_intertwine", None),
    ("lubin_tate.strict_iso", "lubin_tate", "strict_iso", None),
    ("local_tower.build", "local_tower", "EisensteinTower.build", "build"),
    ("local_tower.level_disc", "local_tower", "level_disc", None),
    ("local_tower.divide", "local_tower", "divide_point", None),
    ("local_tower.conductor", "local_tower", "division_conductor", None),
    ("cm_split.field", "cm_split", "CMField.__init__", None),
    ("cm_split.pick_pi", "cm_split", "pick_pi", None),
    ("galois_model.indices", "galois_model", "tower_indices", None),
    ("unit_wedge.reduce", "unit_wedge", "reduce_wedge", None),
    ("unit_wedge.extend", "unit_wedge", "extend_to_g", None),
    ("elliptic_fg.expand", "elliptic_fg", "curve_group_law", None),
    ("elliptic_fg.frobenius", "elliptic_fg", "frobenius_check", None),
    ("elliptic_fg.match", "elliptic_fg", "match_lubin_tate", None),
    ("cli.load", "cli", "RunConfig.load", None),
    ("cli.dispatch", "cli", "dispatch", None),
)

# (counter name, module, attribute path): calls counted without a span.
COUNTS = (
    ("padic.padicint.new", "padic", "PadicInt.__init__"),
    ("local_tower.elem_mul", "local_tower", "LocalElement.__mul__"),
    ("local_tower.elem_mul", "local_tower", "LocalElement.__rmul__"),
    ("galois_model.compose", "galois_model", "compose"),
    ("unit_wedge.steps", "unit_wedge", "wedge_step"),
)

# Modules that bind a patched function under their own name.  Each entry
# is (module, local name, defining module, attribute).
BINDINGS = (
    ("cli", "group_law", "lubin_tate", "group_law"),
    ("cli", "endo", "lubin_tate", "endo"),
    ("cli", "strict_iso", "lubin_tate", "strict_iso"),
    ("cli", "pick_pi", "cm_split", "pick_pi"),
    ("cli", "level_disc", "local_tower", "level_disc"),
    ("cli", "divide_point", "local_tower", "divide_point"),
    ("cli", "division_conductor", "local_tower", "division_conductor"),
    ("cli", "tower_indices", "galois_model", "tower_indices"),
    ("cli", "reduce_wedge", "unit_wedge", "reduce_wedge"),
    ("cli", "extend_to_g", "unit_wedge", "extend_to_g"),
    ("cli", "curve_group_law", "elliptic_fg", "curve_group_law"),
    ("cli", "frobenius_check", "elliptic_fg", "frobenius_check"),
    ("cli", "match_lubin_tate", "elliptic_fg", "match_lubin_tate"),
    ("local_tower", "group_law", "lubin_tate", "group_law"),
    ("local_tower", "endo", "lubin_tate", "endo"),
    ("local_tower", "ring_det", "padic", "ring_det"),
    ("local_tower", "newton_polygon", "padic", "newton_polygon"),
    ("local_tower", "hensel_root", "padic", "hensel_root"),
    ("unit_wedge", "ring_det", "padic", "ring_det"),
    ("cm_split", "endo", "lubin_tate", "endo"),
    ("cm_split", "hensel_root", "padic", "hensel_root"),
    ("elliptic_fg", "lt_group_law", "lubin_tate", "group_law"),
    ("elliptic_fg", "solve_intertwine", "lubin_tate", "solve_intertwine"),
    ("elliptic_fg", "hensel_root", "padic", "hensel_root"),
)

def _resolve(modules, module, path):
    owner = modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """In-memory span store with online self-time accounting."""

    def __init__(self):
        self.names = []          # span name by id
        self.name_id = {}
        # one entry per span: name id, start ns, end ns, parent index, job
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.calls = {}          # name -> calls
        self.self_ns = {}        # name -> summed self time
        self.total_ns = {}       # name -> summed inclusive time
        self.counts = {}         # counter name -> value
        self.extra = {"padic.series_mul.pairs": 0, "padic.ring_det.max_dim": 0}
        self.job = -1
        self._stack = []         # [span index, child ns]
        self._patched = []       # (owner, attribute, original raw attribute)

    # -- recording ----------------------------------------------------

    def _id(self, name):
        i = self.name_id.get(name)
        if i is None:
            i = self.name_id[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_ns[name] = 0
            self.total_ns[name] = 0
        return i

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        nid = self._id(name)
        stack = self._stack
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0)
        frame = [idx, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][1] += dur
            self.span_end[idx] = end
            self.calls[name] += 1
            self.self_ns[name] += dur - frame[1]
            self.total_ns[name] += dur

    def _span_wrapper(self, name, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if extra == "build" and len(args[0].levels) >= args[1]:
                return fn(*args, **kwargs)
            if extra == "pairs":
                tracer.extra["padic.series_mul.pairs"] += (
                    len(args[0].coeffs) * len(args[1].coeffs))
            elif extra == "dim":
                key = "padic.ring_det.max_dim"
                tracer.extra[key] = max(tracer.extra[key], len(args[0]))
            return tracer.call(name, fn, *args, **kwargs)

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------

    def _patch(self, owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)
        return new

    def install(self):
        """Patch every entry point in SPANS and COUNTS, and every binding
        in BINDINGS, in the cmtower modules they name."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"cmtower.{m}") for m in
                   {row[1] for row in SPANS + COUNTS} | {b[0] for b in BINDINGS}}
        replaced = {}
        for name, module, path, extra in SPANS:
            owner, attr = _resolve(modules, module, path)
            replaced[(module, path)] = self._patch(
                owner, attr,
                lambda fn, n=name, x=extra: self._span_wrapper(n, fn, x))
        for name, module, path in COUNTS:
            owner, attr = _resolve(modules, module, path)
            replaced[(module, path)] = self._patch(
                owner, attr, lambda fn, n=name: self._count_wrapper(n, fn))
        for module, local, src, attr in BINDINGS:
            owner = modules[module]
            self._patched.append((owner, local, getattr(owner, local)))
            setattr(owner, local, replaced[(src, attr)])

    def uninstall(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- output -------------------------------------------------------

    def write(self, path):
        """Write every span as one CSV line: name,start_ns,end_ns,parent,job
        (parent is the index of the enclosing span, -1 for a root)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent,job\n")
            names = self.names
            for nid, start, end, parent, job in zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_job):
                fh.write(f"{names[nid]},{start},{end},{parent},{job}\n")
