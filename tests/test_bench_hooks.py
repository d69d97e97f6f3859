"""The benchmark's hook points still exist in the program.

``perfbench/tracer.py`` wraps named functions and methods from outside
the package.  A rename of any of them would not fail the benchmark loudly
— the traced run would simply lose a layer row — so this suite loads the
tracer as it is and checks every name it binds: the ``TARGETS`` table,
the ``map_ordered(label=...)`` keyword it times per label, and the
``ExecutionContext`` and ``load_or_generate`` calls the benchmark's setup
child makes.  It installs no wrappers.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import repro.cli
from repro.config import WorldConfig
from repro.obs import get_metrics
from repro.parallel import ExecutionContext, ResultCache

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "row,module_name,path",
    [(row, module_name, path) for row, module_name, path, _ in tracer.TARGETS],
)
def test_target_resolves(row, module_name, path):
    owner, attr = tracer._resolve(importlib.import_module(module_name), path)
    # ``install`` reads the attribute from the owner's own namespace.
    assert attr in vars(owner), f"{row}: {module_name}.{path} is gone"
    assert callable(getattr(owner, attr))


def test_map_ordered_accepts_label():
    parameters = inspect.signature(ExecutionContext.map_ordered).parameters
    assert "label" in parameters
    with ExecutionContext(jobs=1) as context:
        doubled = context.map_ordered(_double, [1, 2, 3], label="hooks")
    assert doubled == [2, 4, 6]


def test_setup_child_context_constructs():
    with ExecutionContext(jobs=2, backend="process") as context:
        assert context.jobs == 2
        assert not context.is_serial


def test_setup_child_world_call_builds_serially(tmp_path, tiny_world):
    """The setup child's exact call: the ``context`` keyword is accepted,
    the world equals the serial one, and no worker pool is spawned."""
    metrics = get_metrics()
    spawns = metrics.counter("parallel.pool_spawns")
    with ExecutionContext(jobs=2, backend="process") as context:
        world = repro.cli.load_or_generate(
            WorldConfig.tiny(),
            cache=ResultCache(tmp_path),
            context=context,
        )
    assert world.content_digest() == tiny_world.content_digest()
    assert metrics.counter("parallel.pool_spawns") == spawns


def _double(state, item):
    return item * 2
