"""The zero-copy shared-memory state plane.

Covers the three lifecycle promises the plane makes (segments attachable
by name until close, unlink-on-close, idempotent double close), the
worker-side attach/rebuild path, and the end-to-end guarantee that a
shareable state shipped through shared memory produces byte-identical
results on every backend.
"""

from __future__ import annotations

import os
from array import array
from multiprocessing import shared_memory

import pytest

from repro.net.flatgraph import FlatASGraph, GraphArrays, flatten_graph
from repro.net.monitors import Monitor, MonitorSet, RouteCollector
from repro.net.topology import ASGraph
from repro.obs import get_metrics
from repro.parallel import ExecutionContext, SharedStatePlane, is_shareable
from repro.parallel.shm import attach_ref, release_worker_attachments


class _Columns:
    """Minimal shareable object: two typed columns plus a meta dict."""

    def __init__(self, tag, ids, values):
        self.tag = tag
        self.ids = ids
        self.values = values

    def __shm_export__(self):
        return {"tag": self.tag}, [("q", self.ids), ("i", self.values)]

    @classmethod
    def __shm_rebuild__(cls, meta, views):
        return cls(meta["tag"], views[0], views[1])


def _columns(n=100):
    return _Columns("t", array("q", range(n)), array("i", [v * 3 for v in range(n)]))


def _diamond_collector():
    """Monitors in two tier-1s over a diamond topology."""
    graph = ASGraph()
    graph.add_p2p(1, 2)
    graph.add_c2p(10, 1)
    graph.add_c2p(11, 2)
    graph.add_c2p(100, 10)
    graph.add_c2p(100, 11)
    graph.add_c2p(101, 10)
    monitors = MonitorSet([Monitor("m0", 2), Monitor("m1", 1)])
    return RouteCollector(graph, monitors)


def _paths(collector, pair):
    """Module-level so the process backend can address it."""
    monitor, origin = pair
    return collector.path(monitor, origin)


class TestShareableProtocol:
    def test_detection(self):
        assert is_shareable(_columns())
        assert is_shareable(_diamond_collector())
        assert not is_shareable({"plain": "dict"})
        assert not is_shareable(array("q", [1]))

    def test_roundtrip_in_process(self):
        plane = SharedStatePlane()
        try:
            original = _columns(257)
            ref = plane.share(original)
            assert ref.cls is _Columns
            assert ref.total_bytes > 0
            rebuilt = attach_ref(ref)
            assert rebuilt.tag == "t"
            assert list(rebuilt.ids) == list(original.ids)
            assert list(rebuilt.values) == list(original.values)
            # Attach is memoized per segment within a process.
            assert attach_ref(ref) is rebuilt
        finally:
            release_worker_attachments()
            plane.close()

    def test_layout_offsets_are_aligned(self):
        plane = SharedStatePlane()
        try:
            ref = plane.share(_columns(7))  # odd sizes force padding
            for _, offset, _ in ref.layout:
                assert offset % 16 == 0
        finally:
            plane.close()

    def test_empty_buffers_roundtrip(self):
        plane = SharedStatePlane()
        try:
            ref = plane.share(_Columns("e", array("q"), array("i")))
            rebuilt = attach_ref(ref)
            assert len(rebuilt.ids) == 0 and len(rebuilt.values) == 0
        finally:
            release_worker_attachments()
            plane.close()


class TestPlaneLifecycle:
    def test_close_unlinks_segments(self):
        plane = SharedStatePlane()
        ref = plane.share(_columns())
        name = ref.name
        # Attachable while the plane is open...
        probe = shared_memory.SharedMemory(name=name)
        probe.close()
        plane.close()
        # ...and gone from the system after close.
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_double_close_is_a_noop(self):
        plane = SharedStatePlane()
        plane.share(_columns())
        plane.close()
        plane.close()
        assert plane.live_bytes() == 0

    def test_share_after_close_rejected(self):
        plane = SharedStatePlane()
        plane.close()
        with pytest.raises(ValueError):
            plane.share(_columns())

    def test_live_bytes_tracks_segments(self):
        metrics = get_metrics()
        plane = SharedStatePlane()
        segments = metrics.counter("runtime.shm_segments")
        plane.share(_columns())
        plane.share(_columns())
        assert plane.live_bytes() > 0
        assert metrics.counter("runtime.shm_segments") - segments == 2
        plane.close()
        assert plane.live_bytes() == 0

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="POSIX shm filesystem only"
    )
    def test_repeated_runtimes_leak_nothing(self):
        """Three full runtime lifecycles leave /dev/shm exactly as found."""
        before = set(os.listdir("/dev/shm"))
        collector = _diamond_collector()
        pairs = [(m, o) for m in collector.monitors for o in (100, 101)]
        for _ in range(3):
            with ExecutionContext(jobs=2) as context:
                context.map_ordered(_paths, pairs, state=collector)
        leaked = {
            name
            for name in set(os.listdir("/dev/shm")) - before
            if name.startswith("psm_")
        }
        assert not leaked, leaked


class TestRuntimeIntegration:
    def test_shareable_state_ships_via_shm(self):
        metrics = get_metrics()
        collector = _diamond_collector()
        pairs = [(m, o) for m in collector.monitors for o in (100, 101)]
        segments = metrics.counter("runtime.shm_segments")
        with ExecutionContext(jobs=2) as context:
            parallel = context.map_ordered(_paths, pairs, state=collector)
        assert metrics.counter("runtime.shm_segments") - segments == 1
        serial = [_paths(collector, pair) for pair in pairs]
        assert parallel == serial

    def test_serial_backend_bypasses_shm(self):
        metrics = get_metrics()
        collector = _diamond_collector()
        pairs = [(m, o) for m in collector.monitors for o in (100, 101)]
        segments = metrics.counter("runtime.shm_segments")
        with ExecutionContext(jobs=1) as context:
            result = context.map_ordered(_paths, pairs, state=collector)
        assert metrics.counter("runtime.shm_segments") == segments
        assert result == [_paths(collector, pair) for pair in pairs]

    def test_collector_rebuild_preserves_routing(self):
        """The flat-graph collector view answers every path identically."""
        collector = _diamond_collector()
        meta, buffers = collector.__shm_export__()
        rebuilt = RouteCollector.__shm_rebuild__(
            meta, [buf for _, buf in buffers]
        )
        for monitor in collector.monitors:
            for origin in (100, 101, 10, 11, 1, 2):
                assert rebuilt.path(monitor, origin) == collector.path(
                    monitor, origin
                ), (monitor, origin)


class TestFlatGraph:
    def test_flatten_preserves_structure(self):
        graph = ASGraph()
        graph.add_p2p(1, 2)
        graph.add_c2p(10, 1)
        graph.add_c2p(11, 1)
        graph.add_c2p(100, 10)
        flat = flatten_graph(graph).view()
        assert isinstance(flat, FlatASGraph)
        assert len(flat) == len(graph)
        assert set(flat.asns) == set(graph.asns)
        for asn in graph.asns:
            node = flat.index_of(asn)
            assert flat.asn_at(node) == asn
            for rows, neighbors in (
                (flat.providers, graph.providers_of(asn)),
                (flat.customers, graph.customers_of(asn)),
                (flat.peers, graph.peers_of(asn)),
            ):
                got = sorted(flat.asn_at(i) for i in rows[node])
                assert got == sorted(neighbors), asn

    def test_graph_arrays_shm_roundtrip(self):
        graph = ASGraph()
        graph.add_c2p(100, 10)
        graph.add_c2p(10, 1)
        arrays = flatten_graph(graph)
        plane = SharedStatePlane()
        try:
            ref = plane.share(arrays)
            rebuilt = attach_ref(ref)
            assert isinstance(rebuilt, GraphArrays)
            view = rebuilt.view()
            assert set(view.asns) == {100, 10, 1}
            node = view.index_of(10)
            assert [view.asn_at(i) for i in view.customers[node]] == [100]
            assert [view.asn_at(i) for i in view.providers[node]] == [1]
        finally:
            release_worker_attachments()
            plane.close()


def _grow_columns(state, n):
    """Module-level shareable-result producer for the process backend."""
    return _Columns(f"n{n}", array("q", range(n)), array("i", [v * 2 for v in range(n)]))


def _square(state, n):
    return n * n


class TestResultPath:
    """Worker results come back by value: only states ride shared memory,
    so a shareable result is pickled like any other object."""

    SIZES = [3, 0, 17, 64, 5]

    @staticmethod
    def _assert_grown(sizes, results):
        for n, col in zip(sizes, results):
            assert col.tag == f"n{n}"
            assert list(col.ids) == list(range(n))
            assert list(col.values) == [v * 2 for v in range(n)]

    def test_shareable_results_return_by_value(self):
        metrics = get_metrics()
        segments = metrics.counter("runtime.shm_segments")
        with ExecutionContext(jobs=2) as context:
            results = context.map_ordered(_grow_columns, self.SIZES, chunksize=2)
        assert metrics.counter("runtime.shm_segments") == segments
        assert all(isinstance(col.ids, array) for col in results)
        self._assert_grown(self.SIZES, results)

    def test_results_outlive_the_context(self):
        with ExecutionContext(jobs=2) as context:
            results = context.map_ordered(_grow_columns, self.SIZES)
        # The context (and any plane it owned) is closed; the columns are
        # owned copies, not views into unlinked segments.
        self._assert_grown(self.SIZES, results)
        results[2].ids.append(17)
        assert results[2].ids[-1] == 17

    def test_non_shareable_results_pass_through(self):
        with ExecutionContext(jobs=2) as context:
            results = context.map_ordered(_square, [1, 2, 3, 4])
        assert results == [1, 4, 9, 16]

    def test_serial_backend_returns_objects_directly(self):
        with ExecutionContext(jobs=1) as context:
            results = context.map_ordered(_grow_columns, [6])
        assert isinstance(results[0], _Columns)
        assert list(results[0].ids) == list(range(6))

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="POSIX shm filesystem only"
    )
    def test_result_segments_never_leak(self):
        before = set(os.listdir("/dev/shm"))
        for _ in range(2):
            with ExecutionContext(jobs=2) as context:
                context.map_ordered(_grow_columns, [8, 2, 11])
        leaked = {
            name
            for name in set(os.listdir("/dev/shm")) - before
            if name.startswith("psm_")
        }
        assert not leaked, leaked
