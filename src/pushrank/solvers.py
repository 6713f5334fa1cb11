"""Reference solvers: the reference oracle and the power method.

The rank vector x* solves x* = (1-m) A x* + (m/n) 1 with entries summing
to 1, equivalently x* = (I - Q)^{-1} (m/n) 1 with Q = (1-m) A.
`DenseOracle` takes x* once from `power_method`, in sparse products
alone, so x* has the same bytes on any BLAS build and thread count, and
checks every recorded step of a run: its error against x*, and its
conservation from the push invariant's residual, one sparse product with
Q; `power_method` is also the ``power`` algorithm of the CLI. Both solve
for uniform teleportation, the only kind the package runs. Both multiply
by the graph's product `pushrank.webgraph.WebGraph.q_product`, which the
synchronous push takes too: the reference's independence from that
kernel rests on the tests, which pin it against a scipy Q bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .engines import _check_bounds
from .errors import NumericalFailure
from .trace import Trace

__all__ = ["REFERENCE_CAP", "DenseOracle", "power_method"]

REFERENCE_CAP = 5000   # largest n a single run builds the oracle for
# entries of one block of `DenseOracle`'s work arrays,
# 64 KB: glibc's malloc reuses blocks this small, while work arrays over
# 1,000 replicas of 100 pages (800 KB) cost about 200 fresh page faults
# per call in a CLI run on Linux
_BLOCK_ENTRIES = 8192


class DenseOracle:
    """The exact rank vector x* of a graph, and the checks made against it.

    x* is the k-th power iterate from the uniform start, k the first step
    count at which the bound 2 (1-m)^k on its L1 error is at most 2^-53:
    ceil(ln 2^-54 / ln(1-m)) sparse products, 231 at m = 0.15, 3,725 at
    m = 0.01 and 374,281 at m = 1e-4, where they took 2.8-3.7 s on the
    60-page `tests/data/web60.txt`, longer than the runs they check. At
    small m that bound is not the accuracy: every product rounds, and the
    iteration can amplify a rounding by up to 1/m. Against a power
    iterate in long double, with Q's values formed in long double, x* on
    that graph was within 1.3e-16 in L1 at m = 0.15, 2.2e-15 at m = 0.01
    and 1.8e-15 at m = 1e-4, and on the 700-page
    `tests/data/community700.txt` within 6.6e-16 and 7.3e-16 at m = 0.15
    and 0.01. The oracle keeps
    x*, m, n and the graph, whose product `WebGraph.q_product` it takes.
    Both diagnostics take a state, or the (R, n) view of R stacked
    replicas and then return one value per replica from one call. The
    benchmark's tracer wraps the methods by name and leading parameters,
    so those stay as they are. Refuses a bad m or graph before any work.
    """

    def __init__(self, graph, m):
        graph.q_scale(m)                 # refuses a bad m or graph first
        n = graph.n
        self.n = n
        self.m = m
        self._graph = graph
        k = math.ceil(math.log(2.0 ** -54) / math.log1p(-m))
        self.x_star = power_method(graph, m, tol=None, max_steps=k,
                                   cadence=k)[0]
        residual = np.abs(self.x_star - graph.q_product(m, self.x_star)
                          - m / n).sum()
        if residual > 1e-12 * n:
            raise NumericalFailure(f"reference residual {residual:.3e} too large")
        if abs(self.x_star.sum() - 1.0) > 1e-10:
            raise NumericalFailure(
                f"reference mass {self.x_star.sum()!r} deviates from 1")

    def _blocks(self, rows):
        """Slices of `rows` replicas, `_BLOCK_ENTRIES` entries each (at
        least one replica)."""
        step = max(1, _BLOCK_ENTRIES // self.n)
        return [slice(lo, lo + step) for lo in range(0, rows, step)]

    def error_l1(self, x):
        """||x* - x||_1, per row of an (R, n) x, a block of replicas at a
        time; each row sums as it would alone."""
        xs = x.reshape(-1, self.n)
        err = np.empty(xs.shape[0])
        for block in self._blocks(err.size):
            diff = np.subtract(self.x_star, xs[block])
            np.abs(diff, out=diff).sum(axis=1, out=err[block])
        return err.reshape(x.shape[:-1])

    def conservation_defect(self, x, z):
        """A bound on the L1 defect of x + (I - Q)^{-1} Q z against x*, per
        row of (R, n) x and z: ||rho||_1 / m, rho = x - Q (x - z) - m/n.

        Every push keeps the invariant (I - Q) x + Q z = (m/n) 1, whose
        residual rho is (I - Q) times the defect; the columns of Q sum to
        1 - m, so ||(I - Q)^{-1}||_1 <= 1/m. One sparse product per block
        of replicas, in the (n, block) layout: O(R (nnz + n)) in all.
        """
        xs, zs = x.reshape(-1, self.n), z.reshape(-1, self.n)
        bound = np.empty(xs.shape[0])
        for block in self._blocks(bound.size):
            xb, zb = xs[block].T, zs[block].T
            w = self._graph.q_product(self.m, xb - zb)
            np.subtract(xb, w, out=w)
            w -= self.m / self.n
            np.abs(w, out=w).sum(axis=0, out=bound[block])
        bound /= self.m
        return bound.reshape(x.shape[:-1])


def power_method(graph, m, tol=1e-12, max_steps=100_000,
                 oracle=None, cadence=None, record_x=False):
    """Power iteration x(k+1) = Q x(k) + (m/n) 1 from the uniform x(0) = 1/n.

    Stops after `max_steps`, or with a `tol` once the certificate
    ((1-m)/m) ||x(k+1) - x(k)||_1 is <= `tol`: the error of x(k+1) is
    Q (x(k) - x*), and ||x(k) - x*||_1 <= ||x(k+1) - x(k)||_1 / m, since
    the columns of Q sum to 1-m. So a tol stop has ||x* - x||_1 <= tol.
    Records every step, or with a `cadence` every cadence-th (plus the last);
    a cadence below 1, and a tol that is negative or NaN, raise ValueError.
    Each iterate stays a probability vector; a drift beyond 1e-12 raises.
    Returns the final iterate and a trace whose cert column holds that
    certificate from step 1 on (NaN at step 0, and the defect column is
    NaN: there is no residual state here); err_l1 is filled when an
    oracle is supplied.
    """
    _check_bounds(tol, cadence)
    graph.q_scale(m)                     # refuses a bad m or graph first
    n = graph.n
    x = np.full(n, 1.0 / n)
    teleport = m / n
    cadence = cadence or 1
    trace = Trace()

    def record(k, x, cert):
        err = oracle.error_l1(x) if oracle is not None else math.nan
        trace.append(k, k * n, err_l1=err, cert=cert,
                     x=x if record_x else None)

    record(0, x, math.nan)
    k = 0
    while k < max_steps:
        x_next = graph.q_product(m, x) + teleport
        k += 1
        drift = abs(x_next.sum() - 1.0)
        if drift > 1e-12:
            raise NumericalFailure(f"power iterate mass drift {drift:.3e} at step {k}")
        # the certificate costs a pass over x: take it for a stop or record
        recorded = k % cadence == 0 or k == max_steps
        if tol is not None or recorded:
            cert = (1.0 - m) / m * float(np.abs(x_next - x).sum())
        done = tol is not None and cert <= tol
        x = x_next
        if recorded or done:
            record(k, x, cert)
        if done:
            break
    return x, trace
