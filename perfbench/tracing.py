"""Per-layer spans and counters, recorded from outside the program.

``Tracer`` is a context manager that replaces the public functions at each
module boundary of ``knotbound`` with timing wrappers, by patching module
and class attributes, and puts every original back on exit.  A function
imported by name into several modules is patched in each of them.

Every wrapped call pushes a frame, so a layer's self time is its duration
minus the time of the wrapped calls it made.  Calls at coarse boundaries
keep a span record (query, id, parent, name, start, end) in memory; calls
in hot inner loops (Garside factors, Laurent arithmetic, the skein tree's
memo keys and leaves) are only counted and timed.  Spans are written out
once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (defining module, attribute, layer name, hot, modules to patch or None for
# every knotbound module holding the same function object)
FUNCTIONS = [
    ("knotbound.homfly", "homfly", "homfly", False, None),
    ("knotbound.braid", "canonical_closure_key", "homfly.key", True,
     ("knotbound.homfly",)),
    ("knotbound.braid", "closure_components", "homfly.leaf", True,
     ("knotbound.homfly",)),
    ("knotbound.braid", "canonical_closure_key", "cli.key", False,
     ("knotbound.braid",)),
    ("knotbound.braid", "garside_normal_form", "braid.garside_normal_form", True,
     ("knotbound.braid",)),
    ("knotbound.braid", "parse_braid_word", "braid.parse_braid_word", False, None),
    ("knotbound.braid", "destabilize", "braid.destabilize", False, None),
    ("knotbound.seifert", "seifert_matrix", "seifert.seifert_matrix", False, None),
    ("knotbound.seifert", "signature", "seifert.signature", False, None),
    ("knotbound.seifert", "determinant", "seifert.determinant", False, None),
    ("knotbound.khovanov", "braid_to_pd", "khovanov.braid_to_pd", False, None),
    ("knotbound.khovanov", "pd_from_text", "khovanov.pd_from_text", False, None),
    ("knotbound.khovanov", "reduced_khovanov", "khovanov.reduced_khovanov", False,
     None),
    ("knotbound.khovanov", "_rank_sparse", "khovanov.rank", False, None),
    ("knotbound.bounds", "mfw_report", "bounds.mfw_report", False, None),
]

# (module, class, method, layer name, hot)
METHODS = [
    ("knotbound.laurent", "LaurentPoly2", "__mul__", "laurent.mul", True),
    ("knotbound.laurent", "LaurentPoly2", "__add__", "laurent.add", True),
    ("knotbound.cache", "ResultCache", "load", "cache.load", False),
    ("knotbound.cache", "ResultCache", "store", "cache.store", False),
]

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "homfly.calls": "count",
    "homfly.total_s": "s",
    "homfly.nodes": "count",
    "homfly.key_s": "s",
    "homfly.leaves": "count",
    "homfly.memo_hit_ratio": "ratio",
    "braid.garside_normal_form.calls": "count",
    "braid.parse_braid_word.total_s": "s",
    "braid.destabilize.calls": "count",
    "braid.destabilize.total_s": "s",
    "laurent.mul.calls": "count",
    "laurent.mul_s": "s",
    "laurent.add.calls": "count",
    "seifert.seifert_matrix.total_s": "s",
    "seifert.matrix_size": "rows",
    "seifert.signature.total_s": "s",
    "seifert.determinant.total_s": "s",
    "khovanov.braid_to_pd.total_s": "s",
    "khovanov.pd_from_text.total_s": "s",
    "khovanov.reduced_khovanov.total_s": "s",
    "khovanov.rank_s": "s",
    "khovanov.build_s": "s",
    "khovanov.blocks": "count",
    "khovanov.block_cols_max": "count",
    "khovanov.block_nnz": "count",
    "khovanov.cube_vertices": "count",
    "cache.load.calls": "count",
    "cache.load.total_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.store.calls": "count",
    "cache.store.total_s": "s",
    "cache.file_bytes": "bytes",
    "cli.key_s": "s",
    "cli.self_s": "s",
    "bounds.mfw_report.self_s": "s",
    "trace.spans": "count",
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [child seconds, span id]
        self.spans: list[tuple] = []
        self.agg: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: dict[str, int] = {
            "seifert.rows": 0,
            "khovanov.cube_vertices": 0,
            "khovanov.block_cols_max": 0,
            "khovanov.block_nnz": 0,
            "cache.hits": 0,
            "cache.misses": 0,
        }
        self.query = -1
        self.next_id = 0
        self.origin = time.perf_counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn, hot: bool):
        tracer = self
        stack, spans, perf = self.stack, self.spans, time.perf_counter
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = tracer.next_id
            tracer.next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if not hot:
                    spans.append((tracer.query, span_id, parent, name, t0, t1))
            if after is not None:
                after(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def begin_query(self, index: int) -> None:
        self.query = index
        self.stack.append([0.0, self.next_id])
        self.next_id += 1
        self._query_t0 = time.perf_counter()

    def end_query(self) -> None:
        t1 = time.perf_counter()
        child, span_id = self.stack.pop()
        dur = t1 - self._query_t0
        agg = self.agg.setdefault("cli", [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        self.spans.append((self.query, span_id, None, "cli", self._query_t0, t1))

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        importlib.import_module("knotbound.cli")
        modules = [m for k, m in sys.modules.items()
                   if k == "knotbound" or k.startswith("knotbound.")]
        for mod_name, attr, name, hot, targets in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, original, hot)
            owners = ([sys.modules[t] for t in targets] if targets is not None
                      else [m for m in modules if getattr(m, attr, None) is original])
            for owner in owners:
                self._set(owner, attr, wrapper)
        for mod_name, cls_name, attr, name, hot in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._set(cls, attr, self._wrap(name, cls.__dict__[attr], hot))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def _a(self, name: str, field: int):
        entry = self.agg.get(name)
        return entry[field] if entry else 0

    def metrics(self, cache_file_bytes: int, passes: int = 1) -> dict[str, float]:
        """Per-layer metrics, as means per pass over ``passes`` equal passes."""
        calls = self._a("homfly", 0)
        nodes = self._a("homfly.key", 0)
        leaves = self._a("homfly.leaf", 0)
        # Each memo miss is a leaf or an internal node; an internal node
        # makes exactly two recursive calls, each of which takes one key.
        internal = (nodes - calls) / 2
        hits = nodes - leaves - internal
        seifert_calls = self._a("seifert.seifert_matrix", 0)
        c = self.counts
        totals = {
            "homfly.calls": calls,
            "homfly.total_s": self._a("homfly", 1),
            "homfly.nodes": nodes,
            "homfly.key_s": self._a("homfly.key", 1),
            "homfly.leaves": leaves,
            "homfly.memo_hit_ratio": hits / nodes if nodes else 0.0,
            "braid.garside_normal_form.calls": self._a("braid.garside_normal_form", 0),
            "braid.parse_braid_word.total_s": self._a("braid.parse_braid_word", 1),
            "braid.destabilize.calls": self._a("braid.destabilize", 0),
            "braid.destabilize.total_s": self._a("braid.destabilize", 1),
            "laurent.mul.calls": self._a("laurent.mul", 0),
            "laurent.mul_s": self._a("laurent.mul", 1),
            "laurent.add.calls": self._a("laurent.add", 0),
            "seifert.seifert_matrix.total_s": self._a("seifert.seifert_matrix", 1),
            "seifert.matrix_size": (c["seifert.rows"] / seifert_calls
                                    if seifert_calls else 0.0),
            "seifert.signature.total_s": self._a("seifert.signature", 1),
            "seifert.determinant.total_s": self._a("seifert.determinant", 1),
            "khovanov.braid_to_pd.total_s": self._a("khovanov.braid_to_pd", 1),
            "khovanov.pd_from_text.total_s": self._a("khovanov.pd_from_text", 1),
            "khovanov.reduced_khovanov.total_s":
                self._a("khovanov.reduced_khovanov", 1),
            "khovanov.rank_s": self._a("khovanov.rank", 1),
            "khovanov.build_s": (self._a("khovanov.reduced_khovanov", 1)
                                 - self._a("khovanov.rank", 1)),
            "khovanov.blocks": self._a("khovanov.rank", 0),
            "khovanov.block_cols_max": c["khovanov.block_cols_max"],
            "khovanov.block_nnz": c["khovanov.block_nnz"],
            "khovanov.cube_vertices": c["khovanov.cube_vertices"],
            "cache.load.calls": self._a("cache.load", 0),
            "cache.load.total_s": self._a("cache.load", 1),
            "cache.hits": c["cache.hits"],
            "cache.misses": c["cache.misses"],
            "cache.store.calls": self._a("cache.store", 0),
            "cache.store.total_s": self._a("cache.store", 1),
            "cache.file_bytes": cache_file_bytes,
            "cli.key_s": self._a("cli.key", 1),
            "cli.self_s": self._a("cli", 2),
            "bounds.mfw_report.self_s": self._a("bounds.mfw_report", 2),
            "trace.spans": len(self.spans),
        }
        return {name: value if name in _PER_PASS else value / passes
                for name, value in totals.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for query, span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "query": query, "id": span_id, "parent": parent, "name": name,
                    "start": t0 - self.origin, "end": t1 - self.origin,
                }) + "\n")


# Metrics that are already ratios, maxima or per-pass sizes; every other
# metric is a total over all passes.
_PER_PASS = {"homfly.memo_hit_ratio", "seifert.matrix_size",
             "khovanov.block_cols_max", "cache.file_bytes"}


# Counters taken from a wrapped call's arguments or result.


def _after_seifert(counts, args, result) -> None:
    counts["seifert.rows"] += result.size


def _after_reduced_khovanov(counts, args, result) -> None:
    counts["khovanov.cube_vertices"] += 1 << len(args[0].crossings)


def _after_rank(counts, args, result) -> None:
    columns = args[0]
    counts["khovanov.block_cols_max"] = max(counts["khovanov.block_cols_max"],
                                            len(columns))
    counts["khovanov.block_nnz"] += sum(len(col) for col in columns.values())


def _after_cache_load(counts, args, result) -> None:
    counts["cache.hits" if result is not None else "cache.misses"] += 1


_AFTER = {
    "seifert.seifert_matrix": _after_seifert,
    "khovanov.reduced_khovanov": _after_reduced_khovanov,
    "khovanov.rank": _after_rank,
    "cache.load": _after_cache_load,
}
