"""Pinned per-iteration traces: the solver must keep taking the same iterates.

``golden_traces.json`` holds, for six problems in both modes, the final
iteration count, evaluation count and stop code plus, per iteration, which
point was accepted, how many line-search evaluations it took and the merit
value f_next of the new iterate.  Counts must match exactly; f_next must
match to a relative 1e-12, which absorbs only last-digit changes in the
order of floating-point operations.

Run ``PYTHONPATH=src python tests/test_golden_traces.py`` to rewrite the
data file, and only for a change that is meant to alter the iterates.
"""

import json
import math
from pathlib import Path

import pytest

from dfsane.core import SolverConfig
from dfsane.problems import booth, discrete_bvp, expfun2, make, powell_singular
from dfsane.solver import solve

GOLDEN = Path(__file__).with_name("golden_traces.json")
MAX_FEVAL = 100_000
PROBLEMS = {
    "expfun2-3": lambda: expfun2(3),
    "booth": booth,
    "bvp-50": lambda: discrete_bvp(50),
    "powell-singular": powell_singular,
    # At n = 10,000 the accelerated runs reach rank 6, so the kernel's
    # pivoting and trailing updates run on long columns.
    "broyden-tri-1e4": lambda: make("broyden-tri", 10_000),
    "trigexp-1e4": lambda: make("trigexp", 10_000),
}
MODES = ("accelerated", "plain")
CASES = [f"{name}/{mode}" for name in PROBLEMS for mode in MODES]


def run_case(case: str) -> dict:
    name, mode = case.split("/")
    trace = []
    rep = solve(PROBLEMS[name](), SolverConfig(mode=mode, max_feval=MAX_FEVAL),
                trace=trace)
    return {
        "iter": rep.iter,
        "fcnt": rep.fcnt,
        "istop": rep.istop,
        "accepted": [r.accepted for r in trace],
        "ls_evals": [r.ls_evals for r in trace],
        "f_next": [r.f_next for r in trace],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_trace_matches_golden(golden, case):
    want = golden[case]
    got = run_case(case)
    for key in ("iter", "fcnt", "istop", "accepted", "ls_evals"):
        assert got[key] == want[key], key
    assert len(got["f_next"]) == len(want["f_next"])
    for k, (a, b) in enumerate(zip(got["f_next"], want["f_next"])):
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), (k, a, b)


if __name__ == "__main__":
    # One case per line keeps diffs of the data file readable.
    lines = [f"{json.dumps(case)}: {json.dumps(run_case(case))}" for case in CASES]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
