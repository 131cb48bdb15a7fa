"""Spans around spinchi's public functions, recorded from outside the program.

``Tracer.install`` replaces each traced function with a wrapper and
rebinds the wrapper in every ``spinchi`` module namespace that holds the
original, so calls made inside spinchi (``euler`` calling the
``format_factored`` it imported from ``exactq``, the ``bernoulli``
recursion, ``qforms`` calling ``is_prime``) are seen as well.

A span is (span id, parent span id, workload-run id, operation index,
name, start, end, self time, extra).  Self time is the span's duration
minus the time its child spans cover.  ``extra`` carries the
input-derived counts: the bit length of the integer given to
``FactoredInteger.of`` and the term products |supp x| * |supp y| of a
Clifford product.  Spans are kept in flat arrays and written out once,
when the run ends.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

# (metric prefix, module, attribute path, extra-count function)
TRACED = (
    ("exactq.FactoredInteger.of", "exactq", "FactoredInteger.of",
     lambda cls, n: abs(n).bit_length()),
    ("exactq.format_factored", "exactq", "format_factored", None),
    ("exactq.is_prime", "exactq", "is_prime", None),
    ("exactq.bernoulli", "exactq", "bernoulli", None),
    ("exactq.primes_up_to", "exactq", "primes_up_to", None),
    ("clifford.CliffordElement.__mul__", "clifford", "CliffordElement.__mul__",
     lambda x, y: len(x.coeffs) * len(getattr(y, "coeffs", ()))),
    ("clifford.clifford_exp", "clifford", "clifford_exp", None),
    ("clifford.clifford_log", "clifford", "clifford_log", None),
    ("clifford.is_spin_element", "clifford", "is_spin_element", None),
    ("qforms.hilbert_symbol", "qforms", "hilbert_symbol", None),
    ("qforms.hasse_invariant", "qforms", "hasse_invariant", None),
    ("qforms.genus_first_failure", "qforms", "genus_first_failure", None),
    ("qforms.square_class_key", "qforms", "square_class_key", None),
    ("qforms.witt_index_rational", "qforms", "witt_index_rational", None),
    ("qforms.is_isotropic_rational", "qforms", "is_isotropic_rational", None),
    ("ggroups.spin_order_fp", "ggroups", "spin_order_fp", None),
    ("ggroups.vol_compact_dual", "ggroups", "vol_compact_dual", None),
    ("euler.chi_closed", "euler", "chi_closed", None),
    ("euler.adelic_assembly_exact", "euler", "adelic_assembly_exact", None),
    ("euler.adelic_assembly_float", "euler", "adelic_assembly_float", None),
    ("profinite.sweep_theorem_frank_dim", "profinite", "sweep_theorem_frank_dim", None),
    ("profinite.sweep_euler_not_profinite", "profinite", "sweep_euler_not_profinite", None),
    ("cli.main", "cli", "main", None),
)

# lru_cache'd functions whose cache_info() gives a hit ratio
CACHED = (("exactq.bernoulli", "exactq", "bernoulli"),
          ("ggroups.vol_compact_dual", "ggroups", "vol_compact_dual"))


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self.op = -1          # index of the operation being run
        self.next_id = 1
        self.stack = [[0, 0.0]]   # [span id, child time]; 0 is the root
        self.sid, self.parent = array("q"), array("q")
        self.ops, self.name = array("l"), array("l")
        self.t0, self.t1, self.self_s = array("d"), array("d"), array("d")
        self.extra = array("q")
        self.cached: dict[str, object] = {}

    def _wrap(self, name: str, fn, extra):
        nid = len(self.names)
        self.names.append(name)
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            frame = [sid, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                self.sid.append(sid)
                self.parent.append(parent[0])
                self.ops.append(self.op)
                self.name.append(nid)
                self.t0.append(t0)
                self.t1.append(t1)
                self.self_s.append(dur - frame[1])
                self.extra.append(extra(*args) if extra else 0)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function; call once, after importing spinchi."""
        for prefix, mod_name, path in CACHED:
            owner = sys.modules[f"spinchi.{mod_name}"]
            self.cached[prefix] = getattr(owner, path)
        for prefix, mod_name, path, extra in TRACED:
            module = sys.modules[f"spinchi.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(prefix, raw.__func__, extra)))
                else:
                    setattr(cls, attr, self._wrap(prefix, raw, extra))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(prefix, original, extra)
            for name, mod in list(sys.modules.items()):
                if name == "spinchi" or name.startswith("spinchi."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def layer_metrics(self, skip_ops: set[int]) -> dict[str, float]:
        """Per-name calls, self time and extras, leaving out ``skip_ops``.

        Operations cut short by their deadline are skipped, so that every
        count repeats exactly from run to run.
        """
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        extra = [0] * len(self.names)
        for op, nid, s, e in zip(self.ops, self.name, self.self_s, self.extra):
            if op in skip_ops:
                continue
            calls[nid] += 1
            self_s[nid] += s
            extra[nid] += e
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
            out[f"{name}.extra"] = extra[nid]
        for prefix, fn in self.cached.items():
            info = fn.cache_info()
            looked = info.hits + info.misses
            out[f"{prefix}.cache_hit_ratio"] = info.hits / looked if looked else 0.0
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("span_id\tparent_id\trun_id\top\tname\tstart_s\tend_s\tself_s\textra\n")
            for row in zip(self.sid, self.parent, self.ops, self.name,
                           self.t0, self.t1, self.self_s, self.extra):
                sid, parent, op, nid, t0, t1, s, e = row
                fh.write(f"{sid}\t{parent}\t{self.run_id}\t{op}\t{self.names[nid]}"
                         f"\t{t0:.9f}\t{t1:.9f}\t{s:.9f}\t{e}\n")

