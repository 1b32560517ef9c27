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


def test_round_clock_hooks():
    # spans.py replaces names in the program's modules; each must exist,
    # and the round clock must see each round of a run as one round
    import numpy as np

    import qcqpen.sequential as sequential
    from qcqpen import (QcqpProblem, QuadraticFunction, SequentialConfig,
                        run)

    spans = perfbench_module("spans")
    for _, module, attr in spans.TRACED:
        assert callable(getattr(module, attr))
    originals = (sequential.build_penalized, sequential.extract)
    # min |x - (2, 0)|^2 s.t. |x|^2 <= 1
    g = np.array([2.0, 0.0])
    p = QcqpProblem(n=2, objective=QuadraticFunction(np.eye(2), -g, g @ g),
                    inequalities=[QuadraticFunction(np.eye(2), np.zeros(2),
                                                    -1.0)])
    clock = spans.RoundClock()
    clock.install()
    try:
        tr = run(p, SequentialConfig(eta=0.5, init="zero", max_rounds=3,
                                     stop_rel=None))
    finally:
        clock.uninstall()
    assert len(tr.rounds) == 3
    assert len(clock.rounds) == len(tr.rounds)
    for start, end, x in clock.rounds:
        assert start <= end and x.shape == (2,)
    assert (sequential.build_penalized, sequential.extract) == originals
