"""The benchmark's trace wraps program functions by name: each must exist.

A missing target only drops the benchmark rows it fed, so without this test
renaming or deleting one passes the suite unnoticed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.spans import Patcher, Probe, Tracer  # noqa: E402


def test_every_benchmark_patch_target_exists():
    with Patcher() as patcher:
        Probe(patcher)
        Tracer(128).install(patcher)
        assert patcher.missing == []
