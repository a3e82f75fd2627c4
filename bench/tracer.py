"""Tracing prelieder from outside, one span per call of a public name.

`Tracer.install` wraps the public functions of each layer module (the
modules below) and a few methods, and replaces every reference to the
original in every loaded prelieder module, the package namespace
included. Nothing in src/ changes. Each call records a span (name,
start, end, parent span, operation id) in flat arrays kept in memory;
`write` saves them when the run ends.

Times are read from a clock that stops while the tracer does its own
counting (hashing a matrix to count distinct ones, say), so that work
does not show up in the spans around it. A span's self time is its
duration minus the durations of its traced children.
"""

from __future__ import annotations

import inspect
import json
import sys
import types
from array import array
from math import comb
from operator import attrgetter
from time import perf_counter

LAYERS = ("io_cli", "prelie", "cohomology", "exact_linalg", "mn_bracket", "linfty", "deformation", "extension")
# per-scalar and per-vector helpers: wrapping them would cost more than they do
SKIP = {
    "frac", "vec_add", "vec_sub", "vec_scale", "zero_vec",
    "basis_vec", "vec_sub2", "bracket_vec",
    "parse_scalar", "emit_scalar", "emit_vector", "parse_vector",
}  # fmt: skip
METHODS = {"exact_linalg": {"Matrix": ("__init__", "matvec", "__mul__")}, "cohomology": {"Complex": ("d",)}}
VALIDATORS = {"is_prelie", "is_representation", "representation_report", "is_derivation", "is_derpair", "is_regular_pair", "is_morphism"}
LEAF_VALIDATORS = {"is_prelie", "representation_report", "is_derivation", "is_morphism"}
# groups whose outermost spans give an inclusive time (nested calls are not counted twice)
GROUPS = {
    **{f"prelie.{v}": "validate" for v in VALIDATORS},
    "mn_bracket.mn_bracket": "bracket",
    "mn_bracket.circ": "bracket",
}

# (metric, unit) in the order they are reported; values are per traced round
PER_LAYER = [
    ("io_cli.self_s", "s"),
    ("io_cli.parse_s", "s"),
    ("io_cli.requests", "count"),
    ("prelie.validate_s", "s"),
    ("prelie.validate_calls", "count"),
    ("prelie.validate_unique_ratio", "ratio"),
    ("cohomology.assemble_s", "s"),
    ("cohomology.assemble_calls", "count"),
    ("cohomology.assemble_unique_ratio", "ratio"),
    ("cohomology.assembled_cells", "count"),
    ("cohomology.assembled_nnz", "count"),
    ("cohomology.les_s", "s"),
    ("exact_linalg.rref_s", "s"),
    ("exact_linalg.rref_calls", "count"),
    ("exact_linalg.rref_cells", "count"),
    ("exact_linalg.rref_unique_ratio", "ratio"),
    ("exact_linalg.matrix_build_s", "s"),
    ("exact_linalg.matrix_build_cells", "count"),
    ("exact_linalg.solve_s", "s"),
    ("exact_linalg.solve_calls", "count"),
    ("exact_linalg.matvec_s", "s"),
    ("mn_bracket.bracket_s", "s"),
    ("mn_bracket.bracket_calls", "count"),
    ("mn_bracket.output_fill", "ratio"),
    ("linfty.mc_s", "s"),
    ("linfty.mc_calls", "count"),
    ("deformation.self_s", "s"),
    ("deformation.calls", "count"),
    ("extension.self_s", "s"),
    ("extension.calls", "count"),
    ("trace.untraced_round_s", "s"),
    ("trace.traced_round_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
]


def _matrix_digest(m):
    """(fingerprint, nonzeros) of a Matrix, from numerators and denominators
    read directly: hashing Fractions themselves costs twice as much."""
    num, den = attrgetter("numerator"), attrgetter("denominator")
    rows, nnz = [], 0
    for r in m.entries:
        nums = tuple(map(num, r))
        nnz += len(nums) - nums.count(0)
        rows.append(hash((nums, tuple(map(den, r)))))
    return hash((m.rows, m.cols, tuple(rows))), nnz


def _fingerprint(name, args):
    """Hashable identity of a validator's inputs (structure constants and matrices)."""
    parts = []
    for a in args:
        if hasattr(a, "table"):  # PreLieAlgebra
            parts.append(a.table)
        elif hasattr(a, "rho") and hasattr(a, "mu"):  # Representation
            parts.append((a.rho, a.mu))
        elif hasattr(a, "algebra"):  # DerPair
            parts.append((a.algebra.table, a.rep.rho, a.rep.mu, a.D))
        else:
            parts.append(a)
    return hash((name, tuple(parts)))


class Tracer:
    def __init__(self):
        self.names = []
        self.nm = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.opid = array("l")
        self.op = -1
        self.stack = []
        self.paused = 0.0
        self.restore = []
        self.depth = {}
        self.calls = {}
        self.incl = {}
        self.self_time = {}
        self.group_time = {}
        self.counts = {}
        self.distinct = {}

    # -- aggregates

    def count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def begin_round(self):
        """Distinct inputs are counted within one round of operations."""
        for key, seen in self.distinct.items():
            self.count(key + ".distinct", len(seen))
        self.distinct = {}

    def _distinct(self, key, fp):
        self.distinct.setdefault(key, set()).add(fp)

    def now(self):
        return perf_counter() - self.paused

    # -- wrapping

    def _wrap(self, name, fn, group=None, pre=None, post=None):
        tr = self
        if name not in tr.names:
            tr.names.append(name)
        nid = tr.names.index(name)

        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.nm.append(nid)
            tr.parent.append(tr.stack[-1][0] if tr.stack else -1)
            tr.opid.append(tr.op)
            token = None
            if pre is not None:
                p0 = perf_counter()
                token = pre(args)
                tr.paused += perf_counter() - p0
            outer = group is not None and tr.depth.get(group, 0) == 0
            if group is not None:
                tr.depth[group] = tr.depth.get(group, 0) + 1
            frame = [idx, 0.0]
            tr.stack.append(frame)
            t0 = tr.now()
            tr.start.append(t0)
            tr.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = tr.now()
                tr.end[idx] = t1
                tr.stack.pop()
                dur = t1 - t0
                if tr.stack:
                    tr.stack[-1][1] += dur
                tr.calls[nid] = tr.calls.get(nid, 0) + 1
                tr.incl[nid] = tr.incl.get(nid, 0.0) + dur
                tr.self_time[nid] = tr.self_time.get(nid, 0.0) + dur - frame[1]
                if group is not None:
                    tr.depth[group] -= 1
                    if outer:
                        tr.group_time[group] = tr.group_time.get(group, 0.0) + dur
            if post is not None:
                p0 = perf_counter()
                post(args, result, token)
                tr.paused += perf_counter() - p0
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, name):
        """Counters recorded at the boundary of name, outside its span."""
        tr = self

        if name == "cohomology.Complex.d":

            def pre(args):
                # a call that finds d_n already built in the Complex is no assembly
                return args[1] in getattr(args[0], "_d", ())

            def post(args, m, cached):
                if not cached:
                    fp, nnz = _matrix_digest(m)
                    tr.count("assemble")
                    tr.count("assembled_cells", m.rows * m.cols)
                    tr.count("assembled_nnz", nnz)
                    tr._distinct("assemble", fp)

            return pre, post
        if name == "exact_linalg.rref":

            def post(args, result, _):
                m = args[0]
                tr.count("rref_cells", m.rows * m.cols)
                tr._distinct("rref", _matrix_digest(m)[0])

            return None, post
        if name == "exact_linalg.Matrix.__init__":

            def post(args, result, _):
                tr.count("matrix_build_cells", args[1] * args[2])

            return None, post
        if name.startswith("prelie.") and name[7:] in LEAF_VALIDATORS:

            def post(args, result, _):
                tr.count("validate")
                tr._distinct("validate", _fingerprint(name, args))

            return None, post
        if name == "mn_bracket.circ":

            def post(args, c, _):
                tr.count("bracket_keys_nonzero", len(c.coeffs))
                tr.count("bracket_keys_visited", comb(c.dims.total, c.arity - 1) * c.dims.total)

            return None, post
        return None, None

    def install(self):
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"prelieder.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or attr in SKIP
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                name = f"{layer}.{attr}"
                pre, post = self._hooks(name)
                replacements[obj] = self._wrap(name, obj, GROUPS.get(name), pre, post)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = cls.__dict__.get(meth) if cls is not None else None
                    if isinstance(fn, types.FunctionType):
                        name = f"{layer}.{cls_name}.{meth}"
                        pre, post = self._hooks(name)
                        setattr(cls, meth, self._wrap(name, fn, None, pre, post))
                        self.restore.append((cls, meth, fn))
        for modname, holder in list(sys.modules.items()):
            if holder is None or not (modname == "prelieder" or modname.startswith("prelieder.")):
                continue
            for attr, obj in list(vars(holder).items()):
                if isinstance(obj, types.FunctionType) and obj in replacements:
                    setattr(holder, attr, replacements[obj])
                    self.restore.append((holder, attr, obj))

    def uninstall(self):
        for holder, attr, obj in reversed(self.restore):
            setattr(holder, attr, obj)
        self.restore = []

    # -- results

    def _by(self, table, name):
        nid = self.names.index(name) if name in self.names else None
        return table.get(nid, 0) if nid is not None else 0

    def _layer_self(self, layer):
        return sum(t for nid, t in self.self_time.items() if self.names[nid].startswith(layer + "."))

    def _layer_calls(self, layer):
        return sum(c for nid, c in self.calls.items() if self.names[nid].startswith(layer + "."))

    def metrics(self, rounds, untraced_round_s, traced_round_s):
        """Per-layer metrics per traced round, with the tracer's own overhead."""
        self.begin_round()
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        values = {
            "io_cli.self_s": self._layer_self("io_cli"),
            "io_cli.parse_s": self._by(self.incl, "io_cli.parse"),
            "io_cli.requests": self._by(self.calls, "io_cli.cli_run"),
            "prelie.validate_s": self.group_time.get("validate", 0.0),
            "prelie.validate_calls": c.get("validate", 0),
            "prelie.validate_unique_ratio": ratio(c.get("validate.distinct", 0), c.get("validate", 0)),
            "cohomology.assemble_s": self._by(self.self_time, "cohomology.Complex.d"),
            "cohomology.assemble_calls": c.get("assemble", 0),
            "cohomology.assemble_unique_ratio": ratio(c.get("assemble.distinct", 0), c.get("assemble", 0)),
            "cohomology.assembled_cells": c.get("assembled_cells", 0),
            "cohomology.assembled_nnz": c.get("assembled_nnz", 0),
            "cohomology.les_s": self._by(self.incl, "cohomology.les_check"),
            "exact_linalg.rref_s": self._by(self.incl, "exact_linalg.rref"),
            "exact_linalg.rref_calls": self._by(self.calls, "exact_linalg.rref"),
            "exact_linalg.rref_cells": c.get("rref_cells", 0),
            "exact_linalg.rref_unique_ratio": ratio(c.get("rref.distinct", 0), self._by(self.calls, "exact_linalg.rref")),
            "exact_linalg.matrix_build_s": self._by(self.incl, "exact_linalg.Matrix.__init__"),
            "exact_linalg.matrix_build_cells": c.get("matrix_build_cells", 0),
            "exact_linalg.solve_s": self._by(self.incl, "exact_linalg.solve"),
            "exact_linalg.solve_calls": self._by(self.calls, "exact_linalg.solve"),
            "exact_linalg.matvec_s": self._by(self.incl, "exact_linalg.Matrix.matvec"),
            "mn_bracket.bracket_s": self.group_time.get("bracket", 0.0),
            "mn_bracket.bracket_calls": self._by(self.calls, "mn_bracket.mn_bracket"),
            "mn_bracket.output_fill": ratio(c.get("bracket_keys_nonzero", 0), c.get("bracket_keys_visited", 0)),
            "linfty.mc_s": self._by(self.incl, "linfty.mc_check"),
            "linfty.mc_calls": self._by(self.calls, "linfty.mc_check"),
            "deformation.self_s": self._layer_self("deformation"),
            "deformation.calls": self._layer_calls("deformation"),
            "extension.self_s": self._layer_self("extension"),
            "extension.calls": self._layer_calls("extension"),
        }
        per_round = {k: (v if k.endswith("_ratio") or k.endswith("_fill") else v / rounds) for k, v in values.items()}
        per_round["trace.untraced_round_s"] = untraced_round_s
        per_round["trace.traced_round_s"] = traced_round_s
        per_round["trace.overhead_pct"] = 100.0 * (traced_round_s / untraced_round_s - 1.0)
        per_round["trace.spans"] = len(self.start) / rounds
        return per_round

    def write(self, path, meta):
        """Header line (JSON), then the arrays name, start, end, parent, op back to back."""
        with open(path, "wb") as fh:
            header = dict(meta, names=self.names, count=len(self.start), arrays=[["name", "H"], ["start", "d"], ["end", "d"], ["parent", "l"], ["op", "l"]])
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.nm, self.start, self.end, self.parent, self.opid):
                arr.tofile(fh)
