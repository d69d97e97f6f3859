"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


def invalid_jobs(jobs: object) -> ConfigError:
    """The one canonical error for a bad worker count.

    The rule is uniform everywhere: ``jobs`` must be a positive integer.
    The special value ``0`` ("all cores") is an input convention accepted
    only by ``ExecutionContext.resolve`` / ``--jobs 0`` / ``REPRO_JOBS=0``,
    which expands it before construction — no constructed object ever
    carries ``jobs=0``.
    """
    return ConfigError(
        f"jobs must be >= 1 (0 = all cores, accepted only by "
        f"ExecutionContext.resolve / --jobs 0), got {jobs}"
    )


class PrefixError(ReproError):
    """An IPv4 prefix is malformed or an operation on it is invalid."""


class TopologyError(ReproError):
    """The AS-level topology is malformed (unknown AS, bad relationship...)."""


class WorldError(ReproError):
    """The synthetic world model is inconsistent."""


class OwnershipError(WorldError):
    """The ownership graph is malformed (unknown entity, stake > 100 %...)."""


class SourceError(ReproError):
    """A derived data source could not be built or queried."""


class InjectedFaultError(SourceError):
    """A failure injected by the deterministic fault harness.

    A :class:`SourceError`, so every production code path treats an
    injected fault exactly like a real source failure.
    """


class QuarantinedSourceError(SourceError):
    """A quarantined (degraded) source was queried after giving up on it."""


class WorkerCrashError(ReproError):
    """The process pool lost workers more often than the requeue budget."""


class PipelineError(ReproError):
    """A stage of the classification pipeline failed."""


class DatasetError(ReproError):
    """The output dataset is malformed or an import/export failed."""


class AnalysisError(ReproError):
    """An evaluation/analysis routine received inconsistent inputs."""
