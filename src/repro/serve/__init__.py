"""Dataset-as-a-service: the always-on query server behind ``repro serve``.

Three layers, each usable alone:

* :mod:`repro.serve.index` — :class:`SnapshotIndex`, immutable
  read-optimized indices (asn -> org, cc -> orgs, sorted CTI rankings,
  content digests) built from one exported snapshot;
* :mod:`repro.serve.store` — :class:`SnapshotStore`, the hot-swap holder:
  polls the export for changes, rebuilds the index off the serving path,
  and atomically flips one immutable reference (a snapshot that fails to
  load degrades to the previous one, never crashes the server);
* :mod:`repro.serve.http` / :mod:`repro.serve.app` —
  :class:`QueryServer`, the stdlib asyncio HTTP/JSON API, plus
  :class:`ServerThread` / :func:`run_server` embedding helpers.
"""

from repro.serve.app import ServerThread, run_server
from repro.serve.http import QueryServer
from repro.serve.index import SnapshotIndex, SnapshotStamp, build_index
from repro.serve.store import SnapshotStore

__all__ = [
    "QueryServer",
    "ServerThread",
    "SnapshotIndex",
    "SnapshotStamp",
    "SnapshotStore",
    "build_index",
    "run_server",
]
