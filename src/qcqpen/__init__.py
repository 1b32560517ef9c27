"""qcqpen: feasible points for nonconvex QCQPs via sequentially solved
penalized semidefinite relaxations.

The pieces, bottom up: `quadratics` holds the problem data model,
`lifting` builds conic relaxations (full or 2x2 block, RLT and bound
cuts, trace penalty), `solver` is a self-contained primal-dual
interior-point method for the resulting cone programs, `sequential`
iterates penalized solves until the lifted matrix is rank one and then
keeps improving the objective, `regularity` quantifies when a single
penalized round is guaranteed tight, `polyopt` rewrites polynomial
problems as QCQPs, `instances` does file formats and instance
generation, and `cli` binds everything into a command line tool.
"""

from .quadratics import QuadraticFunction, QcqpProblem, jacobian
from .lifting import (RelaxationConfig, LiftedPoint, ExtractionMap, lift,
                      build_relaxation, build_penalized, extract,
                      rlt_cuts, rlt_pair_list)
from .solver import (Cone, ConicProgram, ConicSolution, SolverSettings,
                     solve_conic)
from .sequential import (SequentialConfig, SequentialTrace, RoundRecord,
                         SolveError, EtaTuningError, run, tune_eta,
                         gap_percent, eta_grid, resolve_initial_point,
                         trace_csv, trace_json)
from .regularity import (RegularityReport, check_regularity, binding_sets,
                         sensitivity, pencil_norm_bound, estimate_distance)
from .polyopt import (PolyProblem, PolyParseError, MonomialMap, parse_poly,
                      format_poly, reformulate, lift_point, aux_count_bound,
                      licq_transfer_check)
from .instances import (SysIdParams, SysIdInstance, QplibParseError,
                        UnsupportedProblemError, parse_qplib, load_problem,
                        problem_to_json, problem_from_json, gen_sysid,
                        sysid_to_json, sysid_from_json, write_results,
                        read_refs_csv)

__version__ = "0.1.0"

__all__ = [
    "QuadraticFunction", "QcqpProblem", "jacobian",
    "RelaxationConfig", "LiftedPoint", "ExtractionMap",
    "lift", "build_relaxation", "build_penalized", "extract",
    "rlt_cuts", "rlt_pair_list",
    "Cone", "ConicProgram", "ConicSolution", "SolverSettings",
    "solve_conic",
    "SequentialConfig", "SequentialTrace", "RoundRecord",
    "SolveError", "EtaTuningError", "run", "tune_eta",
    "gap_percent", "eta_grid", "resolve_initial_point",
    "trace_csv", "trace_json",
    "RegularityReport", "check_regularity", "binding_sets",
    "sensitivity", "pencil_norm_bound", "estimate_distance",
    "PolyProblem", "PolyParseError", "MonomialMap", "parse_poly",
    "format_poly", "reformulate", "lift_point", "aux_count_bound",
    "licq_transfer_check",
    "SysIdParams", "SysIdInstance", "QplibParseError",
    "UnsupportedProblemError", "parse_qplib", "load_problem",
    "problem_to_json", "problem_from_json", "gen_sysid",
    "sysid_to_json", "sysid_from_json", "write_results", "read_refs_csv",
    "__version__",
]
