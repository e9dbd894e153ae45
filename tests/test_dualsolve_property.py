"""Property test of the dual sweep: neither half-step lowers the quotient.

Needs hypothesis (the `test` extra); the module is skipped without it, so
the other dual-solve tests never depend on it.
"""

from functools import lru_cache

import numpy as np
import pytest

from lanedual import dualsolve as ds
from lanedual import mesh as msh
from lanedual.exponents import derived_constants
from lanedual.neumann import NeumannSolver

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@lru_cache(maxsize=None)
def _small_solver(kind, N):
    if kind == "radial-annulus":
        return NeumannSolver(msh.build(kind, N, 1.0, 2.0, 64))
    return NeumannSolver(msh.build(kind, N, 0.0, 1.0, 64, 32))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["radial-annulus", "axisym-ball"]),
       N=st.sampled_from([4, 5, 6, 8]),
       frac=st.floats(0.02, 0.98),
       seed=st.integers(0, 2 ** 32 - 1))
def test_each_half_step_is_a_maximizer(kind, N, frac, seed):
    # each half-step of the sweep is the exact maximizer over its variable
    # (Hoelder's equality case on the zero-mean unit sphere), so from any
    # zero-mean start neither half-step lowers Q beyond roundoff; frac
    # places 1/(p+1) along the hyperbola, where max(p, q) reaches ~100
    pack = derived_constants(1.0 / (frac * (N - 2.0) / N) - 1.0, None, N)
    sol = _small_solver(kind, N)
    m = sol.mesh
    rng = np.random.default_rng(seed)
    f, g = (h - m.mean(h) for h in rng.standard_normal((2, m.nnodes)))
    Q = ds.rayleigh_ratio(sol, f, g, pack)
    kappas, trace = [None, None], ds.IterationTrace()
    for _ in range(4):
        Kpg = ds._shift(sol, pack, g, sol.solve_K(g), kappas, trace)
        fn, gn = ds._sweep(sol, pack, Kpg, kappas, trace)
        for Qn in (ds.rayleigh_ratio(sol, fn, g, pack),
                   ds.rayleigh_ratio(sol, fn, gn, pack)):
            assert Qn >= Q - 1e-10 * abs(Q)
            Q = Qn
        g = gn
