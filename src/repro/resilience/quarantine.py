"""The inert stand-in installed in place of a failed candidate source.

:class:`QuarantinedSource` replaces a source whose build failed: any query
raises :class:`~repro.errors.QuarantinedSourceError`, so accidental use of
a degraded source fails loudly instead of silently returning fabricated
data.
"""

from __future__ import annotations

from repro.errors import QuarantinedSourceError

__all__ = ["QuarantinedSource"]


class QuarantinedSource:
    """Stand-in for a degraded source: every query fails loudly."""

    def __init__(self, site: str) -> None:
        self._site = site

    def __getattr__(self, name: str):
        # Dunder lookups (pickling, copying, introspection) must keep the
        # normal missing-attribute protocol.
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        raise QuarantinedSourceError(
            f"source {self._site!r} is quarantined (degraded run); "
            f"refusing query {name!r}"
        )

    def __repr__(self) -> str:
        return f"QuarantinedSource({self._site!r})"
