"""Reference implementations the optimized kernels are pinned against.

Oracles are deliberately plain: per-edge Python, adjacency re-derived
from the graph on every call, no buffers shared across calls.  They run
only in tests and benchmarks, never in the program.
"""
