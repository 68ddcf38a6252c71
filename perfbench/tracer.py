"""Out-of-program tracer for latglue's layers.

The tracer wraps functions of the installed ``latglue`` modules from the
outside; nothing in the package itself changes.  A *span* wrapper records
``(span id, parent id, job id, name, start, end, key)`` for every call and
keeps it in memory; a *counts-only* wrapper just bumps a counter (used for
the hot leaves, where a span per call would swamp the measurement).

``from .discforms import preserves_form`` in ``classify`` binds a second
name to the same function object, so each function is replaced in its
defining module *and* under every name any ``latglue`` module bound it to.
A target that no longer exists raises ``TracerError``: a refactor must
update the table below instead of silently reporting zeros.

Layer self time is derived afterwards: a span's self time is its duration
minus the durations of its direct children (calls are nested on one
thread, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("exact", "lattices", "isometries", "discforms", "classify", "report", "cli")


def _polarization_key(args, kwargs):
    m, orbit = args[0], args[1]
    return [m, list(max(orbit.members))]


# (module, attribute path, span name[, key function]).  Several functions may
# share one span name (the four renderers all count as ``report.render``).
SPAN_TARGETS = (
    ("exact", "snf", "exact.snf"),
    ("exact", "hnf", "exact.hnf"),
    ("exact", "solve_int", "exact.solve_int"),
    ("exact", "frac_inverse", "exact.frac_inverse"),
    ("exact", "det", "exact.det"),
    ("lattices", "IntegerLattice.signature", "lattices.signature"),
    ("lattices", "Sublattice.coordinates_of", "lattices.Sublattice.coordinates_of"),
    ("lattices", "Sublattice.index", "lattices.Sublattice.index"),
    ("lattices", "Sublattice.orthogonal_complement", "lattices.Sublattice.orthogonal_complement"),
    ("isometries", "vectors_of_norm", "isometries.vectors_of_norm"),
    ("isometries", "orthogonal_group", "isometries.orthogonal_group"),
    ("isometries", "orbits", "isometries.orbits"),
    ("isometries", "admits_order3", "isometries.admits_order3"),
    ("isometries", "orbit_witness", "isometries.orbit_witness"),
    ("discforms", "discriminant_group", "discforms.discriminant_group"),
    ("discforms", "enumerate_isotropic_subgroups", "discforms.enumerate_isotropic_subgroups"),
    ("discforms", "span_elements", "discforms.span_elements"),
    ("discforms", "overlattice_with_basis", "discforms.overlattice_with_basis"),
    ("discforms", "extends_to_overlattice", "discforms.extends_to_overlattice"),
    ("discforms", "preserves_form", "discforms.preserves_form"),
    ("discforms", "is_anti_isometry", "discforms.is_anti_isometry"),
    ("discforms", "forms_isometric", "discforms.forms_isometric"),
    ("discforms", "solve_psi_bar", "discforms.solve_psi_bar"),
    ("discforms", "glue_extension_check", "discforms.glue_extension_check"),
    ("classify", "classify", "classify.classify"),
    ("classify", "build_extension", "classify.build_extension", _polarization_key),
    ("classify", "order6_closure", "classify.order6_closure"),
    ("classify", "gluing_map", "classify.gluing_map"),
    ("report", "verify_cases_report", "report.verify_cases_report"),
    ("report", "verify_orbits_report", "report.verify_orbits_report"),
    ("report", "classify_report", "report.classify_report"),
    ("report", "orbit_report", "report.orbit_report"),
    ("report", "lattice_info_report", "report.lattice_info_report"),
    ("report", "render_json", "report.render"),
    ("report", "classify_markdown", "report.render"),
    ("report", "orbit_markdown", "report.render"),
    ("report", "verify_markdown", "report.render"),
    ("cli", "main", "cli.main"),
)

# Counts-only wrappers: (module, attribute path, counter name).
COUNT_TARGETS = (
    ("discforms", "DiscElement.__add__", "discforms.elem_add.calls"),
    ("discforms", "DiscriminantGroup.q", "discforms.q.calls"),
    ("isometries", "Isometry.__init__", "isometries.Isometry.init.calls"),
)

# Work counters read off a span's return value: span name -> (counter, size).
RESULT_COUNTERS = {
    "isometries.vectors_of_norm": ("isometries.vectors_found", len),
    "isometries.orthogonal_group": ("isometries.group_elements", lambda g: len(g.elements)),
    "discforms.enumerate_isotropic_subgroups": ("discforms.isotropic_found", len),
}

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
CALLS_OF = (
    "exact.snf", "exact.hnf", "exact.solve_int", "exact.frac_inverse", "exact.det",
    "lattices.signature",
    "isometries.vectors_of_norm", "isometries.orthogonal_group",
    "discforms.discriminant_group", "discforms.enumerate_isotropic_subgroups",
    "discforms.span_elements", "discforms.overlattice_with_basis",
    "discforms.extends_to_overlattice",
    "classify.classify", "classify.build_extension", "classify.order6_closure",
    "classify.gluing_map",
)
SELF_OF = (
    "exact.snf", "exact.hnf", "exact.solve_int", "exact.frac_inverse", "exact.det",
    "lattices.signature", "lattices.Sublattice.coordinates_of",
    "lattices.Sublattice.index", "lattices.Sublattice.orthogonal_complement",
    "isometries.vectors_of_norm", "isometries.orthogonal_group", "isometries.orbits",
    "isometries.admits_order3", "isometries.orbit_witness",
    "discforms.discriminant_group", "discforms.enumerate_isotropic_subgroups",
    "discforms.span_elements", "discforms.overlattice_with_basis",
    "discforms.extends_to_overlattice",
    "discforms.preserves_form", "discforms.is_anti_isometry", "discforms.forms_isometric",
    "discforms.solve_psi_bar", "discforms.glue_extension_check",
    "classify.build_extension",
    "report.verify_cases_report", "report.verify_orbits_report", "report.classify_report",
    "report.orbit_report", "report.lattice_info_report", "report.render",
    "cli.main",
)
COUNTERS = (
    "isometries.vectors_found", "isometries.group_elements",
    "isometries.Isometry.init.calls", "discforms.isotropic_found",
    "discforms.elem_add.calls", "discforms.q.calls",
)


def per_layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in a fixed order."""
    specs = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [(f"{n}.calls", "count", "lower") for n in CALLS_OF]
    specs += [(f"{n}.self_s", "s", "lower") for n in SELF_OF]
    specs += [(n, "count", "lower") for n in COUNTERS]
    specs += [
        ("classify.build_reuse_ratio", "ratio", "higher"),
        ("cli.process_start_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return specs


class TracerError(RuntimeError):
    """A span target is missing, or the tracer is misused."""


def _resolve(module_name, path):
    """(owner, attribute, object) for ``latglue.<module_name>.<path>``."""
    owner = importlib.import_module(f"latglue.{module_name}")
    obj = owner
    for part in path.split("."):
        owner = obj
        obj = vars(owner).get(part)
        if obj is None:
            raise TracerError(
                f"trace target latglue.{module_name}.{path} no longer exists; "
                "update perfbench/tracer.py"
            )
    if not callable(obj):
        raise TracerError(f"trace target latglue.{module_name}.{path} is not callable")
    return owner, part, obj


class Tracer:
    """Holds spans and counters in memory; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, key_fn):
        tracer = self
        result_counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            key = key_fn(args, kwargs) if key_fn else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.job, name, start, end, key))
            if result_counter:
                tracer.counts[result_counter[0]] += result_counter[1](result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self):
        if self._restore:
            raise TracerError("tracer is already installed")
        for name in LAYERS:
            importlib.import_module(f"latglue.{name}")
        # Resolve every target before patching any, so a missing one leaves
        # the program untouched.
        spans = [(_resolve(m, p), n, k[0] if k else None) for m, p, n, *k in SPAN_TARGETS]
        counts = [(_resolve(m, p), n) for m, p, n in COUNT_TARGETS]
        for (owner, attr, fn), name, key_fn in spans:
            self._replace(owner, attr, fn, self._span(name, fn, key_fn))
        for (owner, attr, fn), name in counts:
            self._replace(owner, attr, fn, self._count(name, fn))

    def _replace(self, owner, attr, original, wrapper):
        """Patch a method on its class, or a function under every bound name."""
        if isinstance(owner, type):
            bindings = [(owner, attr)]
        else:
            bindings = [
                (mod, bound)
                for mod in _latglue_modules()
                for bound, value in vars(mod).items()
                if value is original
            ]
        for where, bound in bindings:
            setattr(where, bound, wrapper)
            self._restore.append((where, bound, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def dump(self, path, header=None):
        """Write a header line and the spans and counters (gzip-compressed JSON)."""
        payload = json.dumps({"spans": self.spans, "counts": dict(self.counts)})
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(header or {}) + "\n" + payload)


def load(path):
    """(header, spans, counts) as written by Tracer.dump."""
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        payload = json.loads(handle.read())
    return header, [tuple(s) for s in payload["spans"]], payload["counts"]


def _latglue_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "latglue" or name.startswith("latglue."))
    ]


def aggregate(spans, counts, process_start_s=0.0, overhead_ratio=0.0):
    """Per-layer metrics from spans and counters.

    ``spans`` may come from several processes; span ids are unique within
    one job, so parent links are resolved per (job, id).
    """
    calls: Counter = Counter()
    duration: dict = {}
    child_time: defaultdict = defaultdict(float)
    for sid, parent, job, name, start, end, _key in spans:
        duration[(job, sid)] = (name, end - start)
        calls[name] += 1
        if parent is not None:
            child_time[(job, parent)] += end - start
    self_of: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    for ident, (name, dur) in duration.items():
        own = dur - child_time.get(ident, 0.0)
        self_of[name] += own
        layer_self[name.split(".", 1)[0]] += own

    builds = [(job, json.dumps(key)) for _s, _p, job, name, _a, _b, key in spans
              if name == "classify.build_extension"]
    reuse = len(set(builds)) / len(builds) if builds else 0.0

    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    for name in CALLS_OF:
        values[f"{name}.calls"] = calls.get(name, 0)
    for name in SELF_OF:
        values[f"{name}.self_s"] = self_of.get(name, 0.0)
    for name in COUNTERS:
        values[name] = counts.get(name, 0)
    values["classify.build_reuse_ratio"] = reuse
    values["cli.process_start_s"] = process_start_s
    values["trace.overhead_ratio"] = overhead_ratio
    return values
