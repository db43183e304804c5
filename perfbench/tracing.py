"""Spans around the calls into qloci's public functions, for the traced run.

The tracer wraps each public function where it is defined and in every
qloci module that imported it, so calls between modules are recorded as
well as calls from the benchmark.  Each span holds its name, start, end,
parent span and op id.  Self time is a span's duration minus the time
covered by its child spans, accumulated as the spans close, so no span
has to be kept for the per-layer table; the span file keeps the first
SPAN_LIMIT of them and counts the rest as dropped.

Only the traced worker installs the wrappers, and `uninstall` puts every
original object back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

SPAN_LIMIT = 100_000

MODULES = ("perms", "poly", "pipedreams", "quiver", "lacing", "factorization", "formulas", "cli")

# Methods that carry a layer's work but are not module-level names.
METHODS = (
    ("perms", "Perm", "bruhat_leq", "bruhat_leq"),
    ("perms", "Perm", "hecke", "hecke"),
    ("perms", "Perm", "from_word", "from_word"),
    ("pipedreams", "PipeDream", "trace_pipes", "trace_pipes"),
    ("poly", "LaurentPoly", "__mul__", "mul"),
    ("poly", "LaurentPoly", "sum", "sum"),
)


def _arguments(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_dreams(tracer, name, fn, args, kwargs, result):
    tracer.counts[name + ".dreams"] += len(result)


def _count_subsets(tracer, name, fn, args, kwargs, result):
    a = _arguments(fn, args, kwargs)
    rows, cols = a["rows"], a["cols"]
    grid = {(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)}
    allowed = grid if a["cells"] is None else set(a["cells"])
    tracer.counts[name + ".subsets"] += 2 ** len(allowed - set(a["forced"]))
    tracer.counts[name + ".dreams"] += len(result)


def _count_tuples(tracer, name, fn, args, kwargs, result):
    from workloads import window_tuples

    tracer.counts[name + ".tuples_checked"] += window_tuples(_arguments(fn, args, kwargs)["quiver"])
    tracer.counts[name + ".hits"] += len(result)


def _count_terms(tracer, name, fn, args, kwargs, result):
    tracer.counts[name + ".terms_out"] += len(result)


def _count_diagrams(tracer, name, fn, args, kwargs, result):
    tracer.counts[name + ".diagrams"] += len(result)
    if name == "lacing.enum_W" and tracer.parent_name() == "lacing.enum_KW":
        tracer.counts["lacing.enum_KW.w_seeds"] += len(result)


def _count_factor(tracer, name, fn, args, kwargs, result):
    a = _arguments(fn, args, kwargs)
    tracer.factor_args.add((name, a["w"], tuple(a["row_vars"]), tuple(a["col_vars"])))


COUNTERS = {
    "pipedreams.enum_rpipes": _count_dreams,
    "pipedreams.enum_pipes": _count_dreams,
    "pipedreams.enum_pipes_by_subsets": _count_subsets,
    "factorization.x_omega_by_factorization": _count_tuples,
    "poly.mul": _count_terms,
    "lacing.enum_W": _count_diagrams,
    "lacing.enum_KW": _count_diagrams,
    "formulas.schubert": _count_factor,
    "formulas.grothendieck": _count_factor,
}


def _public_functions(module):
    names = getattr(module, "__all__", None) or ["main"]
    for attr in names:
        obj = getattr(module, attr)
        # a generator function returns before doing its work, so a span
        # around it would measure nothing
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield attr, obj


class Tracer:
    """Span recorder with per-name call counts and self times."""

    def __init__(self):
        self.stats = {}  # name -> [calls, self_ns, total_ns]
        self.counts = Counter()
        self.factor_args = set()
        self.spans = []  # (span id, name, start ns, end ns, parent id, op id)
        self.dropped = 0
        self.op = 0
        self._stack = []  # [span id, name, child ns]
        self._next_id = 1
        self._patches = []  # (owner, attribute, original object)

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def wrap(self, name, fn):
        """`fn` inside a span called `name`, with its counter if it has one."""
        stats = self.stats.setdefault(name, [0, 0, 0])
        count = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[2]
                stats[2] += duration
                parent = 0
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                if len(self.spans) < SPAN_LIMIT:
                    self.spans.append((sid, name, start, end, parent, self.op))
                else:
                    self.dropped += 1
            if count is not None:
                count(self, name, fn, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every public function of the eight modules, and METHODS."""
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "qloci" or n.startswith("qloci.")]
        for short in MODULES:
            module = sys.modules["qloci." + short]
            for attr, fn in list(_public_functions(module)):
                wrapped = self.wrap("%s.%s" % (short, attr), fn)
                for importer in loaded:
                    for key, value in list(vars(importer).items()):
                        if value is fn:
                            self._patch(importer, key, wrapped)
        for short, cls_name, attr, label in METHODS:
            cls = getattr(sys.modules["qloci." + short], cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap("%s.%s" % (short, label), raw.__func__))
            else:
                new = self.wrap("%s.%s" % (short, label), raw)
            # aliases such as __rmul__ = __mul__ share the span
            for key, value in list(vars(cls).items()):
                if value is raw:
                    self._patch(cls, key, new)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_table(self):
        """Rows (name, calls, self seconds, total seconds), largest self first."""
        rows = [(name, s[0], s[1] / 1e9, s[2] / 1e9) for name, s in self.stats.items()]
        return sorted(rows, key=lambda row: (-row[2], row[0]))

    def layer_metrics(self):
        """Every traced quantity by metric name; ratios keep their bases here."""
        out = {}
        for name, (calls, self_ns, _) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_ns / 1e9
        for short in MODULES:
            out[short + ".self_s"] = sum(
                s[1] for name, s in self.stats.items() if name.startswith(short + ".")
            ) / 1e9
        out.update(self.counts)
        out["formulas.factor_args_distinct"] = len(self.factor_args)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("# spans=%d dropped=%d\n" % (len(self.spans), self.dropped))
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                fh.write("\t".join(str(x) for x in span) + "\n")

    def write_table(self, path):
        with open(path, "w") as fh:
            fh.write("name\tcalls\tself_s\ttotal_s\n")
            for name, calls, self_s, total_s in self.self_table():
                fh.write("%s\t%d\t%.6f\t%.6f\n" % (name, calls, self_s, total_s))
