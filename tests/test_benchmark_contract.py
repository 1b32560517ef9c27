"""The benchmark's contract with the program.

perfbench/ builds its workloads from the library and reads the problems'
data itself; a change to that surface (QuadraticFunction.A's storage, a
generator's signature) should fail here, in tier-1, not first in a
benchmark run. perfbench/ is only imported, never changed.
"""

import pytest

from _support import perfbench_module, tools_module


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


def _ball_problem():
    # min |x - (2, 0)|^2 s.t. |x|^2 <= 1
    import numpy as np

    from qcqpen import QcqpProblem, QuadraticFunction

    g = np.array([2.0, 0.0])
    return QcqpProblem(n=2, objective=QuadraticFunction(np.eye(2), -g, g @ g),
                       inequalities=[QuadraticFunction(np.eye(2), np.zeros(2),
                                                       -1.0)])


def test_tracer_spans_each_round(monkeypatch):
    # the per-layer metrics read each penalized build's eta off its call
    # (by keyword) and count the distinct etas tuned; every hooked name is
    # put back afterwards
    import qcqpen.sequential as sequential
    from qcqpen import SequentialConfig, run

    spans = perfbench_module("spans")
    hooked = [getattr(module, attr) for _, module, attr in spans.TRACED]
    tuned = []
    run_rounds = sequential._run_rounds

    def recorded(p, cfg, xhat, eta, *args, **kwargs):
        if kwargs.get("stop_loose"):
            tuned.append(eta)
        return run_rounds(p, cfg, xhat, eta, *args, **kwargs)
    monkeypatch.setattr(sequential, "_run_rounds", recorded)
    configs = [SequentialConfig(eta=0.5, init="zero", max_rounds=3,
                                stop_rel=None),
               SequentialConfig(init="zero", max_rounds=3, stop_rel=None,
                                tune_rounds=2)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traces = [run(_ball_problem(), cfg) for cfg in configs]
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for _, module, attr in spans.TRACED] \
        == hooked
    assert len(traces[0].rounds) == 3 and tuned

    spans_ = tracer.spans
    roots = [i for i, s in enumerate(spans_) if s[0] == "sequential.run"]
    for root, trace, etas in zip(roots, traces, ([], tuned)):
        end = spans_[root][2]
        inside = [s for s in spans_[root + 1:] if s[2] <= end]
        builds = [s for s in inside if s[0] == "lifting.build_penalized"]
        solves = [s for s in inside if s[0] == "solver.solve_conic"]
        # init="zero": every solve is a round's, one build per round
        assert len(builds) == len(solves) >= len(trace.rounds)
        final = [s[4]["eta"] for s in builds
                 if spans_[s[3]][0] == "sequential.run"]
        assert final == [trace.eta] * len(trace.rounds)
        tuning = [s[4]["eta"] for s in builds
                  if spans_[s[3]][0] == "sequential.tune_eta"]
        assert len(final) + len(tuning) == len(builds)
        # each candidate's rounds, in the order tune_eta ran them
        assert [e for k, e in enumerate(tuning)
                if k == 0 or tuning[k - 1] != e] == etas
        metrics = spans.layer_metrics(spans_, root)
        assert metrics["sequential.tune_candidates"] == len(set(etas))
        assert metrics["lifting.builds"] == len(builds)


def _solve_hashes(name):
    """(solves, cones, paths, closed-form groups, fixed variables,
    orderings, statuses, fallback solves, warm solves, retried rounds) of
    one seed-1 pass of workload `name` through tools/solve_hashes.py."""
    (count, cones, paths, closed, fixed, orderings, iterations, statuses,
     fallback, warm, retried,
     digest) = tools_module("solve_hashes").workload_hash(name, 1)
    assert iterations > 0 and len(digest) == 64
    return (count, cones, paths, closed, fixed, orderings, statuses, fallback,
            warm, retried)


def test_solve_hashes_dense_full():
    # 8 solves over 2 cones, both on the dual path, every solve optimal
    # and none on a fallback iterate; each cone is one moment block, so no
    # group takes the closed forms, and no cone on the sparse path
    # condenses a fixed variable or orders its pattern. Each operation's
    # final run of two rounds starts round 2 warm, which ends optimal
    assert _solve_hashes("dense_full") == (8, 2, "dual:2", "none", 0, 0,
                                           "optimal:8", 0, 4, 0)


def test_solve_hashes_sysid():
    # 10 solves over 2 cones, both on the sparse path with no row kept
    # ("sparse+kept" otherwise), every solve optimal and none on a fallback
    # iterate; the r = 2 lifting's 92 blocks of order 2 and 304 of order 3
    # take the closed forms, and each cone condenses its 64 observed
    # states and orders its pattern once. Rounds 2-5 of each operation's
    # five start warm and end optimal
    assert _solve_hashes("sysid") == (10, 2, "sparse:2", "2:92,3:304", 128,
                                      2, "optimal:10", 0, 8, 0)


def test_solve_hashes_small():
    # 143 solves over 8 cones, all full moment liftings on the full path
    # with one block each, so no closed forms, no fixed variable condensed
    # and no pattern ordered. The 12 near_optimal solves end on the solver's
    # best-iterate branch, 7 of them on an earlier iterate; the 5 unbounded
    # ones are tuning probes. 27 rounds start warm, the poly operations'
    # rounds 2-10; one of them ends near_optimal and is solved again cold,
    # which adds a solve and a near_optimal status
    assert _solve_hashes("small") == (
        143, 8, "full:8", "none", 0, 0,
        "near_optimal:12,optimal:126,unbounded:5", 7, 27, 1)
