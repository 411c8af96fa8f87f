"""In-memory span tracer that times calls into quatsys from outside the package.

`Tracer.install()` wraps the public callables listed in TARGETS at run time.
A module-level function is replaced in every loaded ``quatsys`` module that
imported it by name (``geodesics.interval_solve``, ``cli.systole_search``,
...); a method is replaced on its class.  No file of the package changes.

Each wrapped call records one span: name, start, end, parent span and the
operation id the benchmark set.  Spans stay in flat arrays until the pass
ends, then `summary()` reduces them and `write()` saves them as ``.npz``.
A span's self time is its duration minus the durations of its direct child
spans; calls are synchronous, so children never overlap.

Counters that come from return values (visited nodes, candidates, residues,
undecided statuses) are collected by the same wrappers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute or Class.attribute); the layer is the prefix
# of the span name before the first dot
TARGETS = [
    ("cli.main", "quatsys.cli", "main"),
    ("geodesics.enumerate", "quatsys.geodesics", "enumerate_gamma"),
    ("intervals.interval_solve", "quatsys.intervals", "interval_solve"),
    ("intervals.iv", "quatsys.intervals", "iv_sqrt"),
    ("intervals.iv", "quatsys.intervals", "iv_cosh"),
    ("intervals.iv", "quatsys.intervals", "iv_acosh"),
    ("numfield.field", "quatsys.numfield", "hurwitz_field"),
    ("numfield.embed", "quatsys.numfield", "FieldElement.embed"),
    ("numfield.ideal", "quatsys.numfield", "IdealHNF.from_generators"),
    ("numfield.ideal", "quatsys.numfield", "IdealHNF.principal"),
    ("numfield.ideal", "quatsys.numfield", "IdealHNF.__mul__"),
    ("numfield.ideal", "quatsys.numfield", "IdealHNF.__add__"),
    ("numfield.ideal", "quatsys.numfield", "IdealHNF.divides"),
    ("numfield.ideal", "quatsys.numfield", "IdealHNF.contains"),
    ("realroots.refine", "quatsys.realroots", "refine_root"),
    ("lattice.hnf", "quatsys.lattice", "hnf"),
    ("orders.congruence_lattice", "quatsys.orders", "OrderLattice.congruence_lattice"),
    ("orders.build", "quatsys.orders", "hurwitz_order"),
    ("quotient.init", "quatsys.quotient", "FiniteQuotRing.__init__"),
    ("quotient.count", "quatsys.quotient", "FiniteQuotRing.count_units_and_norm_one"),
    ("torsion.certify", "quatsys.torsion", "certify_torsion_free"),
    ("torsion.roots_in_field", "quatsys.torsion", "roots_in_field"),
    ("quatalg.prime_status", "quatsys.quatalg", "QuaternionAlgebra.finite_prime_status"),
    ("bounds.context", "quatsys.bounds", "hurwitz_context"),
]

LAYERS = ["cli", "geodesics", "intervals", "numfield", "realroots", "lattice",
          "orders", "quotient", "torsion", "quatalg", "bounds"]

# spans the benchmark itself opens around set-up and each operation; their
# self time is the time spent outside every wrapped callable
BENCH_LAYER = "bench"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sid = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.top = array("b")  # 1 unless an enclosing span has the same name
        self._active = []
        self._stack = [-1]
        self._next = 0
        self.current_op = 0
        self.counters = {"geodesics.visited": 0, "geodesics.candidates": 0,
                         "geodesics.elliptic": 0, "quotient.residues": 0,
                         "quotient.norm_one": 0, "quatalg.undecided": 0}
        self.fields = []
        self._restore = []

    # -- span recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._name_ids[name]

    def _record(self, sid, name_id, t0, t1, parent, top):
        self.sid.append(sid)
        self.name.append(name_id)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.op.append(self.current_op)
        self.top.append(top)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of the given name (for the benchmark's own spans)."""
        return self._wrap(fn, self._name_id(name), None)(*args, **kwargs)

    def _wrap(self, fn, name_id, on_return):
        perf = time.perf_counter
        stack = self._stack
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            top = active[name_id] == 0
            active[name_id] += 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                active[name_id] -= 1
                stack.pop()
                self._record(sid, name_id, t0, t1, parent, top)
            if on_return is not None:
                on_return(args, out)
            return out

        return wrapper

    # -- counters from return values ----------------------------------------

    def _on_enumerate(self, _args, out):
        cands, visited = out
        c = self.counters
        c["geodesics.visited"] += visited
        c["geodesics.candidates"] += len(cands)
        c["geodesics.elliptic"] += sum(1 for cand in cands if cand.is_elliptic)

    def _on_count(self, args, out):
        self.counters["quotient.residues"] += args[0].cardinality
        self.counters["quotient.norm_one"] += out[1]

    def _on_status(self, _args, out):
        if out == "undecided":
            self.counters["quatalg.undecided"] += 1

    def _on_field(self, _args, out):
        self.fields.append(out)

    # -- installation -----------------------------------------------------------

    def install(self):
        hooks = {"geodesics.enumerate": self._on_enumerate,
                 "quotient.count": self._on_count,
                 "quatalg.prime_status": self._on_status,
                 "numfield.field": self._on_field}
        for _span, mod_name, _attr in TARGETS:
            importlib.import_module(mod_name)
        modules = [m for n, m in sys.modules.items()
                   if n == "quatsys" or n.startswith("quatsys.")]
        for span, mod_name, attr in TARGETS:
            owner = sys.modules[mod_name]
            cls_name, _, meth = attr.rpartition(".")
            name_id = self._name_id(span)
            hook = hooks.get(span)
            if cls_name:
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name_id, hook))
                else:
                    new = self._wrap(raw, name_id, hook)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(owner, meth)
            new = self._wrap(orig, name_id, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- reduction ----------------------------------------------------------------

    def _arrays(self):
        sid = np.frombuffer(self.sid, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int32)
        top = np.frombuffer(self.top, dtype=np.int8).astype(bool)
        return sid, name, start, end, parent, op, top

    def _self_times(self):
        """(name ids, durations, self times, op ids, top flags) of every span."""
        sid, name, start, end, parent, op, top = self._arrays()
        dur = end - start
        pos = np.full(self._next, -1, dtype=np.int64)
        pos[sid] = np.arange(len(sid))
        child = np.zeros(len(sid))
        nested = parent >= 0
        np.add.at(child, pos[parent[nested]], dur[nested])
        return name, dur, dur - child, op, top

    def summary(self):
        """Per-span-name calls, inclusive and self seconds.

        Inclusive seconds count only spans with no enclosing span of the same
        name, so recursion is not counted twice.  Phase "all" covers every
        span, "solve" the operations after set-up (operation id > 0).
        """
        name, dur, self_t, op, top = self._self_times()
        out = {}
        n = len(self.names)
        for phase, mask in (("all", np.ones(len(op), bool)), ("solve", op > 0)):
            calls = np.bincount(name[mask], minlength=n)
            incl = np.bincount(name[mask], weights=np.where(top, dur, 0.0)[mask],
                               minlength=n)
            own = np.bincount(name[mask], weights=self_t[mask], minlength=n)
            out[phase] = {self.names[k]: {"calls": int(calls[k]), "incl_s": float(incl[k]),
                                          "self_s": float(own[k])} for k in range(n)}
        return out

    def root_bits(self) -> int:
        """Largest denominator bit length of any traced field's isolated roots."""
        bits = 0
        for field in self.fields:
            for root in field.roots:
                bits = max(bits, root.lo.denominator.bit_length(),
                           root.hi.denominator.bit_length())
        return bits

    def write(self, path):
        sid, name, start, end, parent, op, top = self._arrays()
        np.savez(path, names=np.array(self.names), sid=sid, name=name, start=start,
                 end=end, parent=parent, op=op, top=top)
