"""Hash every solve of one benchmark pass, to check that a change keeps the
iterates bit for bit.

    python3 tools/solve_hashes.py             # every workload, seed 1
    python3 tools/solve_hashes.py --seed 2

Run from the root of a source tree: the program is imported from ./src and
the workloads from perfbench/workloads.py, unchanged. Each operation of one
pass (`workloads.make(name, seed)`) runs through qcqpen.sequential.run with
qcqpen.sequential.solve_conic wrapped. For each workload it prints the count
of solves, the count of distinct cones they solve over, the KKT path of
those cones (`paths=dual:2`: two cones on the dual path, from
qcqpen.solver._kkt_path; `sparse+kept` is a sparse cone that keeps
nonnegative rows in its augmented system, qcqpen.solver._kept_rows, so a
change that moves a row between eliminated and kept shows), the block
groups that take the closed-form kernels (`closed=2:92,3:304`: a group of
92 blocks of order 2 and one of 304 of order 3, from
qcqpen.solver._BlockGroup.closed; `closed=none` when every group takes
LAPACK), the fixed variables the sparse path condenses out of its factored
system, summed over the sparse cones (`fixed=128`: 64 in each of two
cones, from qcqpen.solver._fixed_variables, the detection _SparseKkt
runs; 0 for a cone on another path), the count of SuperLU factorizations
that computed a fill-reducing ordering (`orderings=2`: one for each of two
sparse cones, whose later factorizations reuse it with permc_spec
"NATURAL"; counted at scipy.sparse.linalg.splu), the sum of the solves'
iterations,
the count of each status
(`statuses=optimal:8`), the count of solves that returned an earlier,
better iterate in place of the last one (`fallback=7`, from
ConicSolution.fallback), the count of solves given a start (`warm=8`:
rounds after the first of a final run, which start from round 1's
restart), the count of rounds whose warm solve did not end optimal and
was solved again cold (`retried=1`, from RoundRecord.start), the count of
final rounds that took the eta tuner's solution of the same round in
place of a solve (`tuned=5`, from RoundRecord.start; such a round is not
among the solves), the refinement passes of every Newton solve, summed
(`refine=204`: one pass on each of sysid's 204 Newton solves, from the
passes of each solve's KKT factor, as qcqpen.solver._refine reads them),
and one sha256 over every solve's u, y, z and s
bytes, status, stop_reason and iterations, in call order. Compare the
lines of two trees on one machine: the bits depend on the BLAS build,
while iterations and statuses show whether a change that moves the bits
also moved what the solves did.
"""

import argparse
import collections
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# one BLAS thread, as in the benchmark, set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import qcqpen.sequential as sequential  # noqa: E402
import qcqpen.solver as solver  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402
import workloads  # noqa: E402


def solution_bytes(sol) -> bytes:
    """The bytes a solve's hash covers."""
    arrays = b"".join(v.tobytes() for v in (sol.u, sol.y, sol.z, sol.s))
    tail = f"{sol.status}|{sol.stop_reason}|{sol.iterations}".encode()
    return arrays + tail


def _counts(values) -> str:
    """'value:count' for each distinct value, sorted, joined by ','."""
    return ",".join(f"{v}:{k}" for v, k in
                    sorted(collections.Counter(values).items()))


def path_label(cone) -> str:
    """The cone's KKT path, 'sparse+kept' for a sparse cone that keeps
    rows."""
    path = solver._kkt_path(cone)
    if path == "sparse" and solver._kept_rows(cone).any():
        return "sparse+kept"
    return path


def closed_label(cones) -> str:
    """'m:nb' for each distinct group of the cones that takes the
    closed-form kernels, sorted and joined by ',', or 'none'."""
    groups = sorted({(g.m, g.nb) for c in cones for g in c.groups
                     if g.closed})
    return ",".join(f"{m}:{nb}" for m, nb in groups) or "none"


def fixed_count(cones) -> int:
    """The fixed variables the sparse path condenses, summed over the
    cones on that path."""
    return sum(solver._fixed_variables(c.A)[0].size for c in cones
               if solver._kkt_path(c) == "sparse")


def workload_hash(name: str, seed: int) -> tuple:
    """(solves, distinct cones, their KKT paths as 'path:count' joined by
    ',', their closed-form groups (`closed_label`), their fixed variables
    (`fixed_count`), SuperLU factorizations that computed an ordering,
    total iterations, statuses as 'status:count' joined by ',', fallback
    solves, solves given a start, retried rounds, rounds taken from the
    tuner, refinement passes, sha256 hex digest) of one pass of workload
    `name`."""
    digest = hashlib.sha256()
    ends = []       # (status, iterations, fallback) of each solve
    warm = []       # whether each solve was given a start
    retried = tuned = 0
    cones = {}      # id -> cone; holding each cone keeps its id unique
    specs = []      # permc_spec of each SuperLU factorization
    passes = []     # refinement passes of each Newton solve
    solve, splu, refine = sequential.solve_conic, spla.splu, solver._refine

    def counted(K, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return splu(K, **kwargs)

    def refined(kkt, *args):
        passes.append(kkt.passes)
        return refine(kkt, *args)

    def hashed(prog, *args, **kwargs):
        cones[id(prog.cone)] = prog.cone
        warm.append(kwargs.get("start") is not None)
        sol = solve(prog, *args, **kwargs)
        digest.update(solution_bytes(sol))
        ends.append((sol.status, sol.iterations, sol.fallback))
        return sol
    sequential.solve_conic, spla.splu = hashed, counted
    solver._refine = refined
    try:
        for op in workloads.make(name, seed):
            try:
                trace = sequential.run(op.problem, op.config, label=op.label)
                retried += sum(r.start == "retried" for r in trace.rounds)
                tuned += sum(r.start == "tuned" for r in trace.rounds)
            except (sequential.SolveError, sequential.EtaTuningError):
                pass     # the solves before the error are hashed
    finally:
        sequential.solve_conic, spla.splu = solve, splu
        solver._refine = refine
    return (len(ends), len(cones),
            _counts(path_label(c) for c in cones.values()),
            closed_label(cones.values()), fixed_count(cones.values()),
            sum(spec != "NATURAL" for spec in specs),
            sum(it for _, it, _ in ends),
            _counts(st for st, _, _ in ends),
            sum(fb for _, _, fb in ends), sum(warm), retried, tuned,
            sum(passes), digest.hexdigest())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    for name in workloads.WORKLOADS:
        (count, cones, paths, closed, fixed, orderings, iters, statuses,
         fallback, warm, retried, tuned, refine,
         hexdigest) = workload_hash(name, args.seed)
        print(f"{name} solves={count} cones={cones} paths={paths} "
              f"closed={closed} fixed={fixed} orderings={orderings} "
              f"iterations={iters} "
              f"statuses={statuses} fallback={fallback} warm={warm} "
              f"retried={retried} tuned={tuned} refine={refine} "
              f"sha256={hexdigest}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
