"""The benchmark's contract with the program.

perfbench/ builds its workloads from the library and reads the problems'
data itself; a change to that surface (QuadraticFunction.A's storage, a
generator's signature) should fail here, in tier-1, not first in a
benchmark run. perfbench/ is only imported, never changed.
"""

import pytest

from _support import perfbench_module


@pytest.mark.parametrize("name, operations",
                         [("sysid", 2), ("small", 8), ("dense_full", 2)])
def test_workloads_build(name, operations):
    ops = perfbench_module("workloads").make(name, 0)
    assert len(ops) == operations
    assert all(op.matrix_bytes > 0 for op in ops)
