"""Print digests of the solver's iterates, traces, ``--iprint`` output and
acceleration kernel, to check that a change keeps every bit.

Usage::

    OPENBLAS_NUM_THREADS=1 python tools/same_bits.py [N ...]

Run it on two checkouts, say a change and its parent (copy this file into
one that lacks it): it imports the package from the ``src`` directory of the
checkout it sits in.  The two outputs must be identical.  The digests depend
on the BLAS build and thread count, so compare runs on one machine only.
The ``same_bits`` rows of BENCH_17.json are rows 1-5 of its output for
N = 50000 1000000.

Rows, in order (a "short" digest is the first 16 hex digits of a SHA-256):

1. ``desk-suite solves <sha256>``: one SHA-256 over the 20 desk-suite solves,
   ``for p in suite_builtin(): for mode in ("accelerated", "plain")``, each
   with ``SolverConfig(mode=mode, max_feval=100_000, epsf=1e-6 * sqrt(n))``.
   Per solve it is updated with the bytes of ``x``, then of ``res``, then
   with ``repr((name, n, mode, normF.hex(), iter, fcnt, istop, reason))``
   encoded as UTF-8.
2. ``desk-suite traces <sha256>``: one SHA-256 over the same solves'
   IterationRecord traces.  Per solve it is updated with
   ``repr((name, n, mode))``, then per record with the repr of the tuple of
   its fields in dataclass order, each float written as ``float.hex()``.
3. For each N on the command line, broyden-tri then trigexp at n = N,
   accelerated, ``SolverConfig()`` defaults:
   ``<name> <N>: iter=I fcnt=F istop=S accepted <short> rank [r, ...]
   f_next <short> nu <short> x <short>``.  The accepted, f_next and nu_norm
   digests are of the repr of the trace's list of that field (floats as
   ``float.hex()``); the x digest is of the bytes of the final x.  Above
   ``BLOCK_ROWS`` these digests depend on the block order in which
   ``steps.secant_pair`` sums (s'y, s's), as in row 7.
4. ``iprint2 <problem> <n or None> <short> <length>`` for
   ``python -m dfsane solve --problem P [--n N] --iprint 2``: the digest and
   the length of its stdout lines joined by newlines, for rosenbrock-ext
   at n = 10, powell-singular and broyden-tri at n = 20,000.  The last is
   above ``BLOCK_ROWS``, so its digest depends on that block order too.
5. ``kernel n=<n> m=<m> <short>``, the outside-pair path that the kernel
   microbench drives: one ``default_rng(0)`` across the cases n = 10,
   1,000, 100,000 (outer) and m = 2, 6 (inner).  Per case a window of
   capacity 5 gets m - 1 pairs through ``push_pair``, each drawn s then y;
   then s, y, x, F are drawn.  One SHA-256 per case is updated, for each
   of three calls ``accel_point(window, s, y, x, F)``, with the output's
   bytes, ``window.nu``'s bytes and ``repr(window.rank)``, then with the
   C-ordered bytes of S and of Y from ``window.matrices_with(s, y)``.
   ``accel_point`` makes each outside (s, y) the trial pair (s - 0, y - 0)
   through ``trial_difference`` before its solve, the solver's own path;
   these rows kept their digests when that route replaced the solve's
   separate outside-pair branch.
6. ``iprint<L> <case> <short> <length>``, row 4's digest and length for
   more levels and stops: ``--iprint 0`` then ``1`` for ``rosenbrock-ext
   10``; then levels 0, 1, 2 for ``powell-singular maxit=5`` (``--maxit
   5``); then levels 0, 1, 2 for ``expfun2 3 x0=1000``, a breakdown at the
   start point read by ``--x0-file`` from a file holding ``1000 1000 1000``.
7. For each N on the command line, broyden-tri then trigexp at n = N in
   plain mode, ``SolverConfig(mode="plain")``: ``plain <name> <N>: iter=I
   fcnt=F istop=S f_next <short> x <short>``, the digests as in row 3.
   Both modes sum (s'y, s's) with ``steps.secant_pair``, block by block
   above ``BLOCK_ROWS`` (16,384) rows, adding the blocks' products in block
   order, so these digests change with that rule and with ``BLOCK_ROWS``;
   the counts do not.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from dfsane import (SecantWindow, SolverConfig, accel_point, make,  # noqa: E402
                    solve, suite_builtin)

IPRINT_CASES = (("rosenbrock-ext", 10), ("powell-singular", None), ("broyden-tri", 20_000))
KERNEL_SIZES = (10, 1_000, 100_000)
KERNEL_COLUMNS = (2, 6)


def short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def hexed(value):
    return value.hex() if isinstance(value, float) else value


def desk_suite() -> list[str]:
    solves, traces = hashlib.sha256(), hashlib.sha256()
    for p in suite_builtin():
        for mode in ("accelerated", "plain"):
            cfg = SolverConfig(mode=mode, max_feval=100_000, epsf=1e-6 * math.sqrt(p.n))
            trace = []
            rep = solve(p, cfg, trace=trace)
            solves.update(rep.x.tobytes())
            solves.update(rep.res.tobytes())
            solves.update(repr((p.name, p.n, mode, rep.normF.hex(), rep.iter, rep.fcnt,
                                rep.istop, rep.reason)).encode())
            traces.update(repr((p.name, p.n, mode)).encode())
            for rec in trace:
                traces.update(repr(tuple(map(hexed, astuple(rec)))).encode())
    return [f"desk-suite solves {solves.hexdigest()}",
            f"desk-suite traces {traces.hexdigest()}"]


def large_n(n: int, mode: str = "accelerated") -> list[str]:
    rows = []
    for name in ("broyden-tri", "trigexp"):
        trace = []
        rep = solve(make(name, n), SolverConfig(mode=mode), trace=trace)

        def digest(field):
            return short(repr([hexed(getattr(r, field)) for r in trace]).encode())

        head = f"{name} {n}: iter={rep.iter} fcnt={rep.fcnt} istop={rep.istop} "
        x = f"x {short(rep.x.tobytes())}"
        if mode == "plain":
            rows.append(f"plain {head}f_next {digest('f_next')} {x}")
            continue
        rows.append(f"{head}accepted {digest('accepted')} rank {[r.rank for r in trace]} "
                    f"f_next {digest('f_next')} nu {digest('nu_norm')} {x}")
    return rows


def iprint_row(level: int, case: str, args: list[str]) -> str:
    argv = [sys.executable, "-m", "dfsane", "solve", *args, "--iprint", str(level)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    text = "\n".join(out.splitlines())
    return f"iprint{level} {case} {short(text.encode())} {len(text)}"


def iprint2() -> list[str]:
    return [iprint_row(2, f"{name} {n}",
                       ["--problem", name] + ([] if n is None else ["--n", str(n)]))
            for name, n in IPRINT_CASES]


def iprint_stops() -> list[str]:
    rows = [iprint_row(level, "rosenbrock-ext 10", ["--problem", "rosenbrock-ext", "--n", "10"])
            for level in (0, 1)]
    rows += [iprint_row(level, "powell-singular maxit=5",
                        ["--problem", "powell-singular", "--maxit", "5"]) for level in (0, 1, 2)]
    with tempfile.TemporaryDirectory() as tmp:
        x0 = Path(tmp) / "x0.txt"
        x0.write_text("1000 1000 1000\n")
        rows += [iprint_row(level, "expfun2 3 x0=1000",
                            ["--problem", "expfun2", "--n", "3", "--x0-file", str(x0)])
                 for level in (0, 1, 2)]
    return rows


def kernel() -> list[str]:
    rng = np.random.default_rng(0)
    rows = []
    for n in KERNEL_SIZES:
        for m in KERNEL_COLUMNS:
            window = SecantWindow(5)
            for _ in range(m - 1):
                window.push_pair(rng.standard_normal(n), rng.standard_normal(n))
            s, y, x, F = (rng.standard_normal(n) for _ in range(4))
            h = hashlib.sha256()
            for _ in range(3):
                h.update(accel_point(window, s, y, x, F).tobytes())
                h.update(window.nu.tobytes())
                h.update(repr(window.rank).encode())
            for matrix in window.matrices_with(s, y):
                h.update(np.ascontiguousarray(matrix).tobytes())
            rows.append(f"kernel n={n} m={m} {h.hexdigest()[:16]}")
    return rows


def main(argv: list[str]) -> None:
    rows = desk_suite()
    for n in argv:
        rows += large_n(int(float(n)))
    rows += iprint2() + kernel() + iprint_stops()
    for n in argv:
        rows += large_n(int(float(n)), mode="plain")
    print("\n".join(rows))


if __name__ == "__main__":
    main(sys.argv[1:])
