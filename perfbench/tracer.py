"""Spans around the public functions of polyfield's five layers.

The tracer wraps functions from outside the program: it replaces each
module-level binding (and each class attribute) through which the program
reaches a traced function, so ``brackets.contract`` is wrapped as well as
``exterior.contract``.  A span records the function, its start and end
(``time.perf_counter``), the enclosing span and the operation it served
(-1 during set-up).  A call made directly from inside a span of the same
function is recursion and gets no span of its own, so only the outermost
call of a recursive walk is counted.

Spans stay in memory until the run ends; ``write`` stores them as one
compressed ``.npz`` file.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

from polyfield import brackets, exterior, expr, legendre, phase

MODULES = {"expr": expr, "exterior": exterior, "phase": phase,
           "legendre": legendre, "brackets": brackets}

# (layer, function): functions that get spans, so calls and self time
SPANNED = (
    ("expr", "diff"), ("expr", "is_zero"), ("expr", "evaluate"),
    ("exterior", "contract"), ("exterior", "exterior_derivative"),
    ("exterior", "wedge"), ("exterior", "lie_derivative"),
    ("phase", "theta"), ("phase", "multisymplectic_form"),
    ("phase", "theta_basis"), ("phase", "contract_omega_with"),
    ("legendre", "legendre_solve"), ("legendre", "pairing_dv"),
    ("legendre", "pairing_d2v"),
    ("brackets", "theta_basis_solve"), ("brackets", "xi_q"), ("brackets", "xi_p"),
    ("brackets", "internal_bracket"), ("brackets", "noether_sides"),
    ("brackets", "xi_general"),
)

# (layer, function): functions whose calls are only counted
COUNTED = (("legendre", "w_gradient"), ("legendre", "solve_velocity"))


def _bindings(layer, attr):
    """Every (owner, name, original) through which the program reaches
    ``layer.attr``: module globals bound to the module-level function, or
    the classes of that module that define a method of that name."""
    home = MODULES[layer]
    found = []
    target = home.__dict__.get(attr)
    if callable(target) and not isinstance(target, type):
        for mod in MODULES.values():
            for name, value in list(vars(mod).items()):
                if value is target:
                    found.append((mod, name, target))
    for value in list(vars(home).values()):
        if isinstance(value, type) and value.__module__ == home.__name__ \
                and attr in value.__dict__:
            found.append((value, attr, value.__dict__[attr]))
    return found


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fn in SPANNED]
        self.fid = array("h")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {f"{layer}.{fn}.calls": 0 for layer, fn in COUNTED}
        self.counts["legendre.det_calls"] = 0
        self.current_op = -1
        self.missing = []
        self._stack = []
        self._saved = []
        self._paused = False

    # -- wrapping ------------------------------------------------------------

    def _span(self, fid, orig):
        fids, stack = self.fid, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._paused or (stack and fids[stack[-1]] == fid):
                return orig(*args, **kwargs)
            idx = len(fids)
            fids.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return orig(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def _count(self, key, orig):
        counts = self.counts

        def counted(*args, **kwargs):
            if not self._paused:
                counts[key] += 1
            return orig(*args, **kwargs)

        return counted

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self):
        for fid, (layer, fn) in enumerate(SPANNED):
            sites = _bindings(layer, fn)
            if not sites:
                self.missing.append(f"{layer}.{fn}")
            wrapped = {}
            for owner, name, orig in sites:
                if id(orig) not in wrapped:
                    wrapped[id(orig)] = self._span(fid, orig)
                self._patch(owner, name, wrapped[id(orig)])
        for layer, fn in COUNTED:
            sites = _bindings(layer, fn)
            if not sites:
                self.missing.append(f"{layer}.{fn}")
            for owner, name, orig in sites:
                self._patch(owner, name, self._count(f"{layer}.{fn}.calls", orig))
        # numpy.linalg.det is called only from legendre
        self._patch(np.linalg, "det", self._count("legendre.det_calls", np.linalg.det))

    def uninstall(self):
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block (the benchmark's own bookkeeping)
        record nothing."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """``<layer>.<function>.calls`` and ``.self_s`` for every spanned
        function, plus the counters.  Self time is a span's duration minus
        the durations of its direct children (spans nest, so that is the
        part of the interval its children cover)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        fid = np.frombuffer(self.fid, dtype=np.int16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        calls = np.bincount(fid, minlength=len(self.names))
        selfs = np.bincount(fid, weights=self_time, minlength=len(self.names))
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(selfs[i])
        out.update(self.counts)
        return out

    def write(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
