"""In-process tracing of the tailcomb layers, installed from outside the package.

`Tracer.install` replaces each traced public function with a wrapper in every
``tailcomb`` module namespace that binds it (and in the ``SUITES`` registry),
so calls made through any import path are seen; `Tracer.remove` puts the
originals back.  Each wrapper keeps exact per-function counts and self times
(duration minus the time of traced calls made inside it).  A call whose caller
belongs to another layer also leaves a span (name, start, end, parent span,
operation id) in a compact in-memory array that `write_spans` saves at the end.
Calls inside one layer only feed the counters, which keeps memory bounded on
the ~10^6 cache-hit calls a verify run makes.

Tail enumeration is charged to the graph it runs on: graphs returned by
``build_c2`` are subdivisions and their enumeration time goes to
``graph.lifted_tails``, all others to ``graph.tails``, whichever suite
happens to trigger the (cached) work first.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter_ns

# (home module, attribute, metric stem, extra counter name or None)
TARGETS = (
    ("tails", "nested", "tails.nested", "members"),
    ("tails", "symm_diff", "tails.symm_diff", None),
    ("tails", "tail_family", "tails.tail_family", None),
    ("degrees", "delta", "degrees.delta", None),
    ("degrees", "twister", "degrees.twister", None),
    ("degrees", "quasistable_representative", "degrees.qs_representative", "twist_l1"),
    ("degrees", "lemma35_difference", "degrees.lemma35_difference", None),
    ("degrees", "is_quasistable", "degrees.is_quasistable", None),
    ("blowup", "admissibility_check", "blowup.admissibility_check", "instances"),
    ("blowup", "is_quasistable_point", "blowup.is_quasistable_point", None),
    ("blowup", "plan_from_tails", "blowup.plan_from_tails", None),
    ("blowup", "decide_resolution", "blowup.decide_resolution", None),
    ("blowup", "minimality_probe", "blowup.minimality_probe", None),
    ("lift", "build_c2", "lift.build_c2", "lifted"),
    ("lift", "is_synchronized", "lift.is_synchronized", None),
    ("lift", "one_tail_diagnostic", "lift.one_tail_diagnostic", None),
    ("lift", "hat_families", "lift.hat_families", None),
    ("lift", "eq34_level2", "lift.eq34_level2", None),
    ("cli", "main", "cli.main", None),
)
GRAPH_METHODS = ("tails", "k_tails")
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op")
SPAN_CAP = 3_000_000  # 120 MB of spans; the counters stay exact beyond it


def suite_stem(name: str) -> str:
    return "suites." + name.replace("/", "-")


class Tracer:
    def __init__(self):
        self.stems: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.incl_ns: list[int] = []
        self.extra: list[int] = []
        self._slot: dict[str, int] = {}
        self.lifted_vertices = 0
        self.missing: list[str] = []
        self.dropped_spans = 0
        self.op_snapshots: list[tuple[list[int], list[int]]] = []  # (self, incl)
        # stored spans, SPAN_FIELDS values each, back to back
        self.spans = array("q")
        self._op = [-1]
        self._state = [0, None, -1]
        self._restore: list[tuple] = []
        # per-operation registries; strong references keep ids unique
        self._lifted: set[int] = set()
        self._seen_queries: set = set()
        self._keep: list = []
        self.slot("op")

    def slot(self, stem: str) -> int:
        i = self._slot.get(stem)
        if i is None:
            i = self._slot[stem] = len(self.stems)
            self.stems.append(stem)
            self.calls.append(0)
            self.self_ns.append(0)
            self.incl_ns.append(0)
            self.extra.append(0)
        return i

    # -- spans ---------------------------------------------------------------
    #
    # Self time without a frame stack: `_state[0]` is the total duration of
    # the traced calls that have returned, and each call, on return, replaces
    # what its children added by its own duration.  So (_state[0] on return)
    # minus (_state[0] on entry) is exactly the time of its direct children.
    # `_state[1]` and `_state[2]` are the layer and stored span of the
    # innermost open call that crossed into a layer.

    def _open(self, slot: int, parent: int, t0: int) -> int:
        n = len(self.spans) // 5
        if n >= SPAN_CAP:
            self.dropped_spans += 1
            return parent
        self.spans.extend((slot, t0, t0, parent, self._op[0]))
        return n

    def start_op(self, op: int):
        self._op[0] = op
        st = self._state
        self._op_g0 = st[0]
        self._op_t0 = t0 = perf_counter_ns()
        st[1], st[2] = "bench", self._open(0, -1, t0)

    def end_op(self):
        t1 = perf_counter_ns()
        st = self._state
        dur = t1 - self._op_t0
        self.calls[0] += 1
        self.self_ns[0] += dur - st[0] + self._op_g0
        st[0] = self._op_g0 + dur
        if st[2] >= 0:
            self.spans[5 * st[2] + 2] = t1
        st[1], st[2] = None, -1
        self.op_snapshots.append((list(self.self_ns), list(self.incl_ns)))
        self._lifted.clear()
        self._seen_queries.clear()
        self._keep.clear()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, layer: str, slot: int, hook=None, pick=None):
        layer = sys.intern(layer)  # compared by identity on every call
        st, op = self._state, self._op
        calls, self_ns, incl_ns, spans = self.calls, self.self_ns, self.incl_ns, self.spans
        store, clock = spans.extend, perf_counter_ns

        def wrapper(*args, **kwargs):
            k = slot if pick is None else pick(args)
            g0 = st[0]
            outer = st[1]
            t0 = clock()
            if outer is layer:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    calls[k] += 1
                    incl_ns[k] += dur
                    self_ns[k] += dur - st[0] + g0
                    st[0] = g0 + dur
            else:
                outer_span = st[2]
                span = len(spans) // 5
                if span < SPAN_CAP:
                    store((k, t0, t0, outer_span, op[0]))
                else:
                    self.dropped_spans += 1
                    span = outer_span
                st[1], st[2] = layer, span
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dur = t1 - t0
                    calls[k] += 1
                    incl_ns[k] += dur
                    self_ns[k] += dur - st[0] + g0
                    st[0] = g0 + dur
                    st[1], st[2] = outer, outer_span
                    if span != outer_span:
                        spans[5 * span + 2] = t1
            if hook is not None:
                hook(k, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def _bind_everywhere(self, orig, wrapper, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))

    def install(self):
        for home in {t[0] for t in TARGETS} | {"graph", "suites"}:
            try:
                importlib.import_module(f"tailcomb.{home}")
            except ImportError:
                pass  # reported below as missing targets
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "tailcomb" or name.startswith("tailcomb.")) and m]
        for home, attr, stem, extra in TARGETS:
            mod = sys.modules.get(f"tailcomb.{home}")
            orig = getattr(mod, attr, None) if mod else None
            if not callable(orig):
                self.missing.append(f"{home}.{attr}")
                continue
            fixed = self.slot(stem)
            hook = self._hooks(extra)
            wrapper = self._wrap(orig, stem.split(".")[0], fixed, hook)
            self._bind_everywhere(orig, wrapper, modules)
        self._install_graph_methods()
        self._install_suites(modules)

    def _install_graph_methods(self):
        graph_mod = sys.modules.get("tailcomb.graph")
        cls = getattr(graph_mod, "CurveGraph", None)
        base, lifted = self.slot("graph.tails"), self.slot("graph.lifted_tails")
        lifted_ids = self._lifted

        def pick(args):
            return lifted if id(args[0]) in lifted_ids else base

        for meth in GRAPH_METHODS:
            orig = cls.__dict__.get(meth) if cls else None
            if orig is None:
                self.missing.append(f"graph.CurveGraph.{meth}")
                continue
            wrapper = self._wrap(orig, "graph", base, self._count_tails(meth), pick)
            setattr(cls, meth, wrapper)
            self._restore.append((cls, meth, orig))

    def _install_suites(self, modules):
        suites_mod = sys.modules.get("tailcomb.suites")
        registry = getattr(suites_mod, "SUITES", None)
        if not isinstance(registry, dict):
            self.missing.append("suites.SUITES")
            return
        for name, orig in list(registry.items()):
            s = self.slot(suite_stem(name))
            wrapper = self._wrap(orig, "suites", s)
            registry[name] = wrapper
            self._restore.append((registry, name, orig))
            self._bind_everywhere(orig, wrapper, modules)

    def remove(self):
        for target, attr, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._restore.clear()

    # -- per-call counters -----------------------------------------------------

    def _hooks(self, kind):
        extra = self.extra
        if kind == "members":
            def hook(slot, args, result):
                extra[slot] += len(result.members)
        elif kind == "twist_l1":
            def hook(slot, args, result):
                extra[slot] += sum(abs(v) for v in result[0])
        elif kind == "instances":
            def hook(slot, args, result):
                extra[slot] += len(result.instances)
        elif kind == "lifted":
            def hook(slot, args, result):
                lg = result.graph
                if id(lg) not in self._lifted:
                    self._lifted.add(id(lg))
                    self._keep.append(result)
                    self.lifted_vertices += lg.p
        else:
            hook = None
        return hook

    def _count_tails(self, meth: str):
        """Tails returned, each distinct (graph, query) counted once."""
        extra, seen, keep = self.extra, self._seen_queries, self._keep

        def hook(slot, args, result):
            key = (id(args[0]), meth) + args[1:]
            if key not in seen:
                seen.add(key)
                keep.append(args[0])
                extra[slot] += len(result)

        return hook

    # -- results ---------------------------------------------------------------

    def value(self, stem: str, field: str):
        i = self._slot.get(stem)
        if i is None:
            return 0
        if field == "calls":
            return self.calls[i]
        if field == "self_s":
            return self.self_ns[i] / 1e9
        return self.extra[i]

    def _op_delta(self, op: int, which: int) -> dict[str, float]:
        now = self.op_snapshots[op][which]
        prev = self.op_snapshots[op - 1][which] if op > 0 else []
        prev = prev + [0] * (len(now) - len(prev))
        return {s: (now[i] - prev[i]) / 1e9
                for i, s in enumerate(self.stems) if now[i] != prev[i]}

    def op_self_s(self, op: int) -> dict[str, float]:
        """Self time per traced function during one operation."""
        return self._op_delta(op, 0)

    def op_suite_s(self, op: int) -> dict[str, float]:
        """Inclusive time per suite during one operation."""
        return {s: t for s, t in self._op_delta(op, 1).items() if s.startswith("suites.")}

    def write_spans(self, stem_path) -> dict:
        """Write the spans to `<stem>.bin` as native int64 records of
        SPAN_FIELDS (name is an index into the header's names, parent a
        record index or -1) and the header to `<stem>.json`."""
        header = {"names": self.stems, "fields": SPAN_FIELDS, "typecode": "q",
                  "count": len(self.spans) // 5, "dropped": self.dropped_spans}
        with open(f"{stem_path}.bin", "wb") as fh:
            self.spans.tofile(fh)
        with open(f"{stem_path}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        return header
