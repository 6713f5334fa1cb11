"""Reference solvers: the dense oracle and the power method.

The rank vector x* solves x* = (1-m) A x* + (m/n) 1 with entries summing
to 1, equivalently x* = (I - Q)^{-1} (m/n) 1 with Q = (1-m) A.
`DenseOracle` factors (I - Q) once and checks every recorded step of a
run against x*; `power_method` is the ``power`` algorithm of the CLI. Both
solve for uniform teleportation, the only kind the package runs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg

from .errors import NumericalFailure
from .trace import Trace

__all__ = ["DENSE_CAP", "DenseOracle", "power_method"]

DENSE_CAP = 5000


class DenseOracle:
    """Dense factorization of (I - Q) plus the exact rank vector.

    Precomputes an LU factorization so that per-step error and conservation
    diagnostics cost one pair of triangular solves. Only intended for
    graphs up to `dense_cap` pages.
    """

    def __init__(self, graph, m, dense_cap=DENSE_CAP):
        n = graph.n
        if n > dense_cap:
            raise ValueError(
                f"n={n} exceeds the dense oracle cap {dense_cap}; "
                "use power_method for larger graphs")
        self.n = n
        self.m = m
        i_minus_q = np.eye(n) - graph.q_matrix(m).toarray()
        self._lu = linalg.lu_factor(i_minus_q)
        self.x_star = linalg.lu_solve(self._lu, np.full(n, m / n))
        residual = np.abs(i_minus_q @ self.x_star - m / n).sum()
        if residual > 1e-12 * n:
            raise NumericalFailure(f"dense solve residual {residual:.3e} too large")
        if abs(self.x_star.sum() - 1.0) > 1e-10:
            raise NumericalFailure(
                f"dense solve mass {self.x_star.sum()!r} deviates from 1")

    def error_l1(self, x):
        return float(np.abs(self.x_star - x).sum())

    def conservation_defect(self, x, z):
        """L1 defect of x + (I - Q)^{-1} Q z against x*.

        Uses (I - Q)^{-1} Q = (I - Q)^{-1} - I to reuse the factorization.
        """
        resolved = linalg.lu_solve(self._lu, z)
        return float(np.abs(x + resolved - z - self.x_star).sum())


def power_method(graph, m, tol=1e-12, max_steps=100_000,
                 oracle=None, cadence=1, record_x=False):
    """Power iteration x(k+1) = Q x(k) + (m/n) 1 from the uniform x(0) = 1/n.

    Stops after `max_steps`, or once the L1 step difference is <= `tol` if set.
    Each iterate stays a probability vector; a drift beyond 1e-12 raises.
    Returns the final iterate and a trace (cert/defect columns are NaN --
    there is no residual state here; err_l1 is filled when an oracle is
    supplied).
    """
    n = graph.n
    x = np.full(n, 1.0 / n)
    q = graph.q_matrix(m)
    teleport = m / n
    trace = Trace()

    def record(k, x):
        err = oracle.error_l1(x) if oracle is not None else math.nan
        trace.append(k, k * n, err_l1=err, x=x if record_x else None)

    record(0, x)
    k = 0
    while k < max_steps:
        x_next = q @ x + teleport
        k += 1
        drift = abs(x_next.sum() - 1.0)
        if drift > 1e-12:
            raise NumericalFailure(f"power iterate mass drift {drift:.3e} at step {k}")
        diff = float(np.abs(x_next - x).sum())
        x = x_next
        if k % cadence == 0:
            record(k, x)
        if tol is not None and diff <= tol:
            break
    if trace.final_step != k:
        record(k, x)
    return x, trace

