"""Timing wrappers around the program's public functions, installed from the
benchmark's own files for a traced in-process run.

Each wrapper replaces the function wherever the program looks it up: the
defining module, every ``coronaglue`` module that imported the name (for
example ``glue.solve_point`` or ``smoothness.g_eval``), and the class
dictionary for methods (including aliases such as ``ZSPoly.__rmul__``).

A span is (name, start, end, parent, command, round).  Spans are kept in
per-thread arrays while the run lasts, because the point solves run on the
program's worker threads, and are written out by :meth:`Tracer.save` when it
ends.  A span's parent is the innermost open span of the same thread, so
children of one span never overlap and its self time is its duration minus
the sum of its children's durations.
"""

from __future__ import annotations

import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# -- counters recorded next to the spans ------------------------------------


def _cnorm_name(args, kwargs):
    return f"smoothness.cnorm_report.o{_arg(args, kwargs, 1, 'order')}"


def _cnorm_post(tracer, args, kwargs, result, _ctx):
    dim = len(_arg(args, kwargs, 0, "glued").family.box)
    tracer.count("smoothness.cnorm_report.s_points", result.axis_samples ** dim)


def _weight_jets_post(tracer, args, kwargs, result, _ctx):
    flat = result.reshape(len(result), -1)
    tracer.count("cover_pou.weight_jets.computed", len(flat))
    tracer.count("cover_pou.weight_jets.useful", int(np.count_nonzero(flat.any(axis=1))))


def _solve_post(tracer, args, kwargs, result, _ctx):
    glued, _timings = result
    tracer.count("glue.cover_centers", glued.cover.size)
    tracer.count("glue.refinements", glued.refinements)


def _reuse_pre(args, kwargs):
    centers = _arg(args, kwargs, 1, "cover").centers
    cache = _arg(args, kwargs, 3, "cache") or {}
    return len(centers), sum(1 for c in centers if c in cache)


def _reuse_post(tracer, args, kwargs, result, ctx):
    tracer.count("glue.points_requested", ctx[0])
    tracer.count("glue.points_reused", ctx[1])


def _samples_post(key):
    def post(tracer, args, kwargs, result, _ctx):
        tracer.count(key, result.samples_used)
    return post


def _chain_post(tracer, args, kwargs, result, _ctx):
    tracer.count("bezout_point.gcd_chain_bezout.returned", 1)


def _least_norm_post(tracer, args, kwargs, result, _ctx):
    tracer.count("bezout_point.least_norm_max_degree",
                 _arg(args, kwargs, 1, "degree"), use_max=True)


def _rows_post(tracer, args, kwargs, result, _ctx):
    tracer.count("serialize.csv_rows", result[0])


# (module, attribute path, span name or None for "module.attribute",
#  name function, pre hook, post hook)
TARGETS = (
    ("smoothness", "cnorm_report", None, _cnorm_name, None, _cnorm_post),
    ("smoothness", "fd_check", None, None, None, None),
    ("smoothness", "g_partial", None, None, None, None),
    ("jets", "jet_mul", None, None, None, None),
    ("jets", "jet_reciprocal", None, None, None, None),
    ("jets", "jet_exp", None, None, None, None),
    ("cover_pou", "PartitionOfUnity.weight_jets", "cover_pou.weight_jets",
     None, None, _weight_jets_post),
    ("cover_pou", "PartitionOfUnity.weights", "cover_pou.weights", None, None, None),
    ("cover_pou", "PartitionOfUnity.derivs", "cover_pou.derivs", None, None, None),
    ("polyalg", "CPoly.eval", None, None, None, None),
    ("polyalg", "SPoly.partial", None, None, None, None),
    ("polyalg", "ZSPoly.taylor_coeffs", None, None, None, None),
    ("polyalg", "ZSPoly.eval_sgrid", None, None, None, None),
    ("polyalg", "ZSPoly.__mul__", "polyalg.ZSPoly.mul", None, None, None),
    ("glue", "solve", None, None, None, _solve_post),
    ("glue", "solve_at_samples", None, None, _reuse_pre, _reuse_post),
    ("glue", "residual_certify", None, None, None,
     _samples_post("glue.residual_certify.samples")),
    ("glue", "phi_eval", None, None, None, None),
    ("glue", "g_eval", None, None, None, None),
    ("bezout_point", "solve_point", None, None, None, None),
    ("bezout_point", "gcd_chain_bezout", None, None, None, _chain_post),
    ("bezout_point", "least_norm_bezout", None, None, None, _least_norm_post),
    ("hnorm", "delta_lower", None, None, None, _samples_post("hnorm.delta_lower.samples")),
    ("hnorm", "sup_family", None, None, None, _samples_post("hnorm.sup_family.samples")),
    ("serialize", "save_solution", None, None, None, None),
    ("serialize", "load_solution", None, None, None, None),
    ("serialize", "export_grid_csv", None, None, None, _rows_post),
    ("config", "load_config", None, None, None, None),
)


class _Buffer:
    __slots__ = ("name", "parent", "start", "end", "command", "round", "stack")

    def __init__(self):
        self.name, self.parent = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.command, self.round = array("i"), array("i")
        self.stack = []


class Tracer:
    """Spans and counters of one traced run; ``command`` and ``round`` are
    set by the harness before each CLI call."""

    def __init__(self, commands):
        self.commands = list(commands)
        self.command = 0
        self.round = 0
        self.names, self._ids = [], {}
        self.buffers = []
        self.counters = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.get(name)
                if nid is None:
                    nid = self._ids[name] = len(self.names)
                    self.names.append(name)
        return nid

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self.buffers.append(buf)
        return buf

    def count(self, key, value, use_max=False):
        with self._lock:
            k = (self.round, self.command, key)
            self.counters[k] = max(self.counters[k], value) if use_max \
                else self.counters[k] + value

    def _wrap(self, fn, name, name_fn, pre, post):
        tracer, perf = self, time.perf_counter
        fixed_id = self._id(name)

        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            i = len(buf.start)
            buf.name.append(tracer._id(name_fn(args, kwargs)) if name_fn else fixed_id)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.command.append(tracer.command)
            buf.round.append(tracer.round)
            buf.start.append(0.0)
            buf.end.append(0.0)
            ctx = pre(args, kwargs) if pre else None
            buf.stack.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                buf.stack.pop()
                buf.start[i], buf.end[i] = t0, t1
            if post:
                post(tracer, args, kwargs, result, ctx)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target, wherever the program looks it up."""
        import coronaglue  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "coronaglue" or n.startswith("coronaglue."))]
        for module_name, path, name, name_fn, pre, post in TARGETS:
            module = sys.modules[f"coronaglue.{module_name}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, name or f"{module_name}.{path}", name_fn, pre, post)
            for holder in ([owner] if owner_name else modules):
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, key, fn))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def spans(self):
        """All spans as numpy arrays, parents as global indices."""
        cols = {k: [] for k in ("name", "parent", "start", "end", "command",
                                "round", "thread")}
        offset = 0
        for thread, buf in enumerate(self.buffers):
            n = len(buf.start)
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)[:n]
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for key in ("name", "command", "round"):
                cols[key].append(np.frombuffer(getattr(buf, key), dtype=np.int32)[:n])
            cols["start"].append(np.frombuffer(buf.start, dtype=float)[:n])
            cols["end"].append(np.frombuffer(buf.end, dtype=float)[:n])
            cols["thread"].append(np.full(n, thread, dtype=np.int32))
            offset += n
        return {k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            commands=np.array(self.commands), **self.spans())

    def aggregate(self):
        """{(round, command, span name): (calls, seconds, self seconds)} and
        {(round, command, counter): value}."""
        sp = self.spans()
        if not len(sp["start"]):
            return {}, {}
        dur = sp["end"] - sp["start"]
        child = np.zeros(len(dur))
        has = sp["parent"] >= 0
        np.add.at(child, sp["parent"][has], dur[has])
        own = dur - child
        key = np.stack([sp["round"], sp["command"], sp["name"]], -1)
        uniq, inv = np.unique(key, axis=0, return_inverse=True)
        inv = inv.ravel()
        calls = np.bincount(inv)
        total = np.bincount(inv, weights=dur)
        selft = np.bincount(inv, weights=own)
        spans = {(int(r), self.commands[c], self.names[n]): (int(k), float(t), float(s))
                 for (r, c, n), k, t, s in zip(uniq, calls, total, selft)}
        counters = {(r, self.commands[c], k): v for (r, c, k), v in self.counters.items()}
        return spans, counters
