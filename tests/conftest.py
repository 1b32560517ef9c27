"""Shared pytest wiring.

BLAS runs on one thread. test_acceptance appends its PASS/FAIL lines to
`acceptance_lines`; echoing them from the terminal summary keeps the gate
readable in the run log even though output during the tests themselves is
captured.
"""

import os

# one BLAS thread, as in the benchmark and tools/solve_hashes.py, set before
# numpy loads: threaded BLAS slows the small dense products of these tests
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)
