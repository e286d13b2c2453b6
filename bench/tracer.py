"""Per-layer tracing of utrestrict from outside the package.

The tracer wraps the public functions of each layer by rebinding the name
in every utrestrict module that holds it (`from .setpart import
enumerate_partitions` binds the name separately in restrict, scfcore, cli
and oracle), and methods on their classes.  Every wrapped call is a frame
on one stack; a frame's self time is its duration minus the time its child
frames cover.  Coarse calls are also kept as spans (id, name, start, end,
parent id, query id) in memory and written out when the pass ends.  Hot
calls (polynomial arithmetic, partition yields, matrix products) are only
counted and timed, so the span list stays small.

Generators are timed per resumption: the time the consumer spends between
two yields belongs to the consumer.
"""

import json
import time
from importlib import import_module
from inspect import isgeneratorfunction

clock = time.perf_counter

MODULES = ("qcalc", "setpart", "nestposet", "scfcore", "oracle", "restrict",
           "cli")


def _terms(dec):
    return len(dec.coeffs)


def _orbit_states(table):
    return sum(len(orbit) for orbit in table.orbits)


# (module, attribute, stat name, keep spans, result counter); several
# attributes may share one stat
TARGETS = [
    ("setpart", "enumerate_partitions", "setpart.enumerate", False, None),
    ("setpart", "SetPartition.uncross", "setpart.uncross", False, None),
    ("nestposet", "block_poset", "nestposet.block_poset", True, None),
    ("nestposet", "poset_binom", "nestposet.binom", False, None),
    ("nestposet", "poset_multinom", "nestposet.binom", False, None),
    ("qcalc", "QPoly.__mul__", "qcalc.mul", False, None),
    ("qcalc", "QPoly.__rmul__", "qcalc.mul", False, None),
    ("qcalc", "interpolate", "qcalc.interpolate", True, None),
    ("scfcore", "superchar_value", "scfcore.superchar_value", False, None),
    ("scfcore", "supercharacter_table", "scfcore.table", True, None),
    ("scfcore", "solve_exact", "scfcore.solve", True, None),
    ("scfcore", "decompose_at_prime", "scfcore.prime", True, None),
    ("scfcore", "decompose_exact", "scfcore.decompose_exact", True, None),
    ("scfcore", "restrict_values", "scfcore.restrict_values", True, None),
    ("oracle", "superclass_orbits", "oracle.orbits", True, _orbit_states),
    ("oracle", "module_trace", "oracle.trace", True, None),
    ("oracle", "mat_mul", "oracle.mat_mul", False, None),
    ("cli", "run", "cli.run", True, None),
]
# the rest of the polynomial layer, so that qcalc.self_s covers it
TARGETS += [("qcalc", f"QPoly.{name}", "qcalc.other", False, None)
            for name in ("__init__", "__add__", "__radd__", "__sub__",
                         "__rsub__", "__neg__", "__pow__", "shift",
                         "__call__", "__str__", "q_pow", "const")]
TARGETS += [("qcalc", name, "qcalc.other", False, None)
            for name in ("qint", "qfactorial", "qbinom", "qphi", "qmultinom",
                         "primes")]
# closed-form engines: each returns a Decomposition; terms are counted on
# the outermost engine call only
TARGETS += [("restrict", name, "restrict.engine", True, _terms)
            for name in ("PsiKModule.decomposition", "psi_hook",
                         "CoreModule.decomposition", "rainbow",
                         "interference", "peel", "double_rainbow", "onion",
                         "UtAlgebra.core_style",
                         "UtAlgebra.superchar_decomposition")]
TARGETS += [("restrict", name, "restrict.value", False, None)
            for name in ("PsiKModule.value", "CoreModule.value",
                         "UtAlgebra.trace", "UtAlgebra.row_module_value")]


class Stat:
    __slots__ = ("name", "spans", "count", "calls", "outer_calls", "items",
                 "self_s", "incl_s", "depth")

    def __init__(self, name, spans, count):
        self.name = name
        self.spans = spans
        self.count = count
        self.calls = 0          # every call
        self.outer_calls = 0    # calls with no frame of this stat below
        self.items = 0          # yields, or what `count` found in results
        self.self_s = 0.0
        self.incl_s = 0.0       # outermost frames only, so no double count
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self.query = None
        self._stack = []        # frames: [start, child seconds, span id, parent]
        self._next_span = 0
        self._undo = []

    # --- frames ---

    def _enter(self, st):
        stack = self._stack
        parent = stack[-1][2] if stack else None
        span = parent
        if st.spans:
            span = self._next_span
            self._next_span += 1
        frame = [clock(), 0.0, span, parent]
        stack.append(frame)
        st.depth += 1
        return frame

    def _leave(self, st, frame):
        end = clock()
        stack = self._stack
        stack.pop()
        dur = end - frame[0]
        st.self_s += dur - frame[1]
        st.depth -= 1
        if st.depth == 0:
            st.incl_s += dur
        if stack:
            stack[-1][1] += dur
        if st.spans:
            self.spans.append((frame[2], st.name, frame[0], end, frame[3],
                               self.query))

    # --- wrappers ---

    def _wrap_function(self, fn, st):
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            outer = st.depth == 0
            st.calls += 1
            st.outer_calls += outer
            frame = enter(st)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(st, frame)
            if outer and st.count is not None:
                st.items += st.count(result)
            return result
        return traced

    def _wrap_generator(self, fn, st):
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            st.calls += 1
            st.outer_calls += st.depth == 0
            it = fn(*args, **kwargs)
            try:
                while True:
                    frame = enter(st)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(st, frame)
                    st.items += 1
                    yield item
            finally:
                it.close()
        return traced

    # --- installation ---

    def install(self):
        mods = {name: import_module(f"utrestrict.{name}") for name in MODULES}
        for mod_name, attr, stat_name, spans, count in TARGETS:
            st = self.stats.get(stat_name)
            if st is None:
                st = self.stats[stat_name] = Stat(stat_name, spans, count)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod_name], cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                traced = self._wrap_function(fn, st)
                setattr(cls, meth, staticmethod(traced)
                        if isinstance(raw, staticmethod) else traced)
                self._undo.append((cls, meth, raw))
                continue
            fn = getattr(mods[mod_name], attr)
            wrap = (self._wrap_generator if isgeneratorfunction(fn)
                    else self._wrap_function)
            traced = wrap(fn, st)
            for mod in mods.values():
                if mod.__dict__.get(attr) is fn:
                    setattr(mod, attr, traced)
                    self._undo.append((mod, attr, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- results ---

    def layer_metrics(self, bytes_out):
        s = self.stats

        def self_s(prefix):
            return sum(st.self_s for name, st in s.items()
                       if name.startswith(prefix))

        partitions = s["setpart.enumerate"].items
        terms = s["restrict.engine"].items
        return {
            "setpart.partitions": partitions,
            "setpart.enumerate_s": s["setpart.enumerate"].incl_s,
            "setpart.uncross_calls": s["setpart.uncross"].calls,
            "nestposet.block_poset_calls": s["nestposet.block_poset"].calls,
            "nestposet.block_poset_s": s["nestposet.block_poset"].incl_s,
            "nestposet.binom_calls": s["nestposet.binom"].calls,
            "nestposet.binom_s": s["nestposet.binom"].incl_s,
            "qcalc.mul_calls": s["qcalc.mul"].calls,
            "qcalc.self_s": self_s("qcalc."),
            "qcalc.interpolate_calls": s["qcalc.interpolate"].calls,
            "qcalc.interpolate_s": s["qcalc.interpolate"].incl_s,
            "scfcore.superchar_values": s["scfcore.superchar_value"].calls,
            "scfcore.table_s": s["scfcore.table"].incl_s,
            "scfcore.solve_calls": s["scfcore.solve"].calls,
            "scfcore.solve_s": s["scfcore.solve"].incl_s,
            "scfcore.primes_sampled": s["scfcore.prime"].calls,
            "oracle.orbit_states": s["oracle.orbits"].items,
            "oracle.orbits_s": s["oracle.orbits"].incl_s,
            "oracle.trace_calls": s["oracle.trace"].calls,
            "oracle.trace_s": s["oracle.trace"].incl_s,
            "oracle.mat_mul_calls": s["oracle.mat_mul"].calls,
            "restrict.engine_calls": s["restrict.engine"].outer_calls,
            "restrict.self_s": self_s("restrict."),
            "restrict.terms": terms,
            "restrict.keep_ratio": terms / partitions if partitions else 0.0,
            "cli.self_s": s["cli.run"].self_s,
            "cli.bytes_out": bytes_out,
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent",
                                  "query"],
                       "spans": self.spans}, fh)
