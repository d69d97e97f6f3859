"""Layer tracer: wraps the program's public functions from outside.

Nothing under ``src/`` is edited.  :func:`install` replaces module and
class attributes with timing wrappers before the command runs, so every
call the CLI makes into a layer lands in a :class:`Tracer` row:

* ``seconds`` — summed wall time of the outermost call of that row (a
  recursive or super() call into the same row is not counted twice);
* ``calls`` — number of outermost calls;
* ``hits`` — what the row's observer counts in the results: calls that
  found a document, cache hits, transit terms emitted.

``covered_s`` sums the wall time of calls made while no other wrapped
call was active: the time the layer rows account for, from which the
benchmark derives ``untraced_s`` (the part of the command no row covers).

The wrappers live in the process that calls :func:`install`.  Pool
workers forked later inherit them but their rows are never collected,
which is why the benchmark adds a ``-j 1`` pass for worker-side layers.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

class Row:
    __slots__ = ("seconds", "calls", "hits", "samples", "depth")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.hits = 0.0
        self.samples: List[float] = []
        self.depth = 0


# Observers: what a row records from a finished outermost call's result.
def _nonempty(tracer: "Tracer", row: Row, result: Any, elapsed: float) -> None:
    row.hits += 1 if result else 0


def _notnone(tracer: "Tracer", row: Row, result: Any, elapsed: float) -> None:
    row.hits += 0 if result is None else 1


def _terms(tracer: "Tracer", row: Row, result: Any, elapsed: float) -> None:
    row.hits += len(result)


def _snapshot(tracer: "Tracer", row: Row, result: Any, elapsed: float) -> None:
    row.samples.append(elapsed)
    reused = result.provenance.get("reused_fraction", 0.0)
    tracer.extra["reused_fraction"].append(reused)


def _world(tracer: "Tracer", row: Row, result: Any, elapsed: float) -> None:
    tracer.extra["world_ases"] = len(result.graph)


def _load(tracer: "Tracer", row: Row, result: Any, elapsed: float) -> None:
    row.samples.append(elapsed)
    tracer.world_asns = sorted(result.graph)


Observer = Callable[["Tracer", Row, Any, float], None]

#: (row, module, attribute path, observer or None).  One row may be bound
#: at several sites: a function imported by name into another module is
#: looked up there, so it is wrapped there too.
TARGETS: Tuple[Tuple[str, str, str, Optional[Observer]], ...] = (
    ("world.load", "repro.cli", "load_or_generate", _load),
    ("world.generate", "repro.world.generator", "WorldGenerator.generate", _world),
    ("sources.from_world", "repro.core.pipeline", "PipelineInputs.from_world", None),
    ("sources.find_documents", "repro.sources.documents",
     "ConfirmationCorpus.find_documents", _nonempty),
    ("sources.find_documents", "repro.incremental.corpus_cache",
     "CachingCorpus.find_documents", _nonempty),
    ("text.name_similarity", "repro.text.normalize", "name_similarity", None),
    ("text.name_similarity", "repro.sources.documents", "name_similarity", None),
    ("text.name_similarity", "repro.core.mapping", "name_similarity", None),
    ("core.pipeline", "repro.core.pipeline", "StateOwnershipPipeline.run", None),
    ("core.candidates", "repro.core.pipeline", "harvest_candidates", None),
    ("core.map_asn", "repro.core.mapping", "CompanyMapper.map_asn", None),
    ("core.investigate", "repro.core.confirmation",
     "OwnershipAnalyst.investigate", None),
    ("core.explore", "repro.core.subsidiaries", "SubsidiaryExplorer.explore", None),
    ("core.expand", "repro.core.pipeline", "expand_to_asns", None),
    ("cti.stage", "repro.core.pipeline", "select_cti_candidates", None),
    ("cti.index", "repro.cti.metric", "CTIComputer._ensure_index", None),
    ("cti.precompute", "repro.cti.metric", "CTIComputer.precompute", None),
    ("cti.score", "repro.cti.metric", "CTIComputer.country_cti", None),
    ("cti.walk", "repro.cti.metric", "_walk_origin", _terms),
    ("net.propagate", "repro.net.propagation", "PropagationKernel.propagate", None),
    ("net.path", "repro.net.monitors", "RouteCollector.path", None),
    ("io.dump_json", "repro.io.jsonio", "dump_json", None),
    ("io.dump_cti_json", "repro.io.jsonio", "dump_cti_json", None),
    ("io.sqlite", "repro.io.sqliteio", "dataset_to_sqlite", None),
    ("maintain.walk", "repro.core.maintenance", "run_maintenance", None),
    ("incremental.snapshot", "repro.incremental.engine",
     "IncrementalEngine.run_snapshot", _snapshot),
    ("cache.get", "repro.parallel.cache", "ResultCache.get", _notnone),
    ("cache.get", "repro.parallel.cache", "ResultCache.get_blob", _notnone),
    ("cache.put", "repro.parallel.cache", "ResultCache.put", None),
    ("cache.put", "repro.parallel.cache", "ResultCache.put_blob", None),
)
#: Untraced runs time only the CLI's world call (``setup_s``).
SETUP_TARGETS = TARGETS[:1]


class Tracer:
    """Rows of wall time and call counts, keyed by layer row name."""

    def __init__(self) -> None:
        self.rows: Dict[str, Row] = {}
        self.covered_s = 0.0
        self.extra: Dict[str, Any] = {"map_s": {}, "reused_fraction": []}
        #: Every pass through a wrapper, nested ones included.
        self.entries = 0
        #: The ASNs of the world the CLI loaded (the serve sessions' keys).
        self.world_asns: List[int] = []
        self._active = 0

    def row(self, name: str) -> Row:
        row = self.rows.get(name)
        if row is None:
            row = self.rows[name] = Row()
        return row

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer]) -> Callable:
        row = self.row(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.entries += 1
            if row.depth:
                return fn(*args, **kwargs)
            row.depth += 1
            self._active += 1
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                row.depth -= 1
                self._active -= 1
                row.seconds += elapsed
                row.calls += 1
                if not self._active:
                    self.covered_s += elapsed
            if observe is not None:
                observe(self, row, result, elapsed)
            return result

        return traced

    def wrap_map(self, fn: Callable) -> Callable:
        """``ExecutionContext.map_ordered``, timed per ``label``."""
        map_s = self.extra["map_s"]

        @functools.wraps(fn)
        def traced(ctx, fn_, items, *args, label: str = "map", **kwargs):
            started = time.perf_counter()
            try:
                return fn(ctx, fn_, items, *args, label=label, **kwargs)
            finally:
                map_s[label] = map_s.get(label, 0.0) + time.perf_counter() - started

        return traced

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rows": {
                name: {
                    "seconds": row.seconds,
                    "calls": row.calls,
                    "hits": row.hits,
                    "samples": row.samples,
                }
                for name, row in self.rows.items()
            },
            "covered_s": self.covered_s,
            "entries": self.entries,
            "extra": self.extra,
        }


def wrapper_cost_s(calls: int = 200_000) -> float:
    """Seconds one pass through a wrapper adds to a call (median of 5)."""

    def noop() -> None:
        return None

    wrapped = Tracer().wrap("calibration", noop, None)
    costs = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        direct = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - started - direct) / calls)
    return sorted(costs)[2]


def _resolve(owner: Any, path: str) -> Tuple[Any, str]:
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer, targets=TARGETS) -> None:
    """Wrap ``targets`` in place; call once, in a fresh process."""
    for name, module_name, path, observe in targets:
        owner, attr = _resolve(importlib.import_module(module_name), path)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__, observe))
        else:
            wrapped = tracer.wrap(name, raw, observe)
        setattr(owner, attr, wrapped)


def install_maps(tracer: Tracer) -> None:
    """Time ``ExecutionContext.map_ordered`` per label."""
    from repro.parallel.context import ExecutionContext

    ExecutionContext.map_ordered = tracer.wrap_map(ExecutionContext.map_ordered)
