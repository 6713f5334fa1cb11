"""Dense reference oracles the tests check the engines against.

One simultaneous push by the set phi acts linearly on the state pair:
``x+ = x + R_phi z`` and ``z+ = Q_phi z``, where column i of Q_phi is q_i
(the i-th column of Q) for i in phi and e_i otherwise, R_phi keeps only
the q_i columns, and S_phi keeps only the e_i columns. Single-page
matrices Q_i, R_i, S_i are the singleton case. The group step uses
``Rhat = R (I - R)^{-1}`` built from R of the group's member set.
`mean_matrices` and `analytic_mean_trace` give the expected dynamics under
random singleton selection (Ishii and Tempo, IEEE TAC 2010), and
`neumann_partial` the partial sums of x* = sum_t Q^t (m/n) 1 that
synchronous steps reproduce. `q_matrix` is Q as a scipy matrix, the
product that the package's own (`WebGraph.q_product`) is pinned against
bit for bit. `next_set` draws a schedule's next step,
as the loops that push one step at a time take it.
`run_summing_every_step` is the driver loop
that sums the residual before every step, the reference for the stop step
of `pushrank.engines.run`; `run_step_by_step` is that run's loop with one
`step_set` or `step_group` call per step, the reference for the segments
it pushes in one call; `monte_carlo_one_by_one` runs Monte Carlo
replicas one after another, the reference for the stacked replicas of
`pushrank.harness.monte_carlo`; `step_group_full_block` is the group
step that adds each group's full columns of Q to a whole block of pages,
the reference for the compact columns of `pushrank.cluster.step_group`;
and `DenseDefect` is the dense conservation defect that
`pushrank.solvers.DenseOracle` bounds.

The lifted matrices are dense and capped at small n. All functions but
`next_set` and the two drivers, which consume their schedules, and the
group step, which updates its state in place, are pure.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from pushrank import engines
from pushrank.cluster import _ITER_TOL, _REST_FRACTION, step_group
from pushrank.engines import init_state, run, step_set
from pushrank.scheduling import Schedule, derive_seed
from pushrank.trace import Trace

ORACLE_CAP = 200


def _check_cap(n):
    if n > ORACLE_CAP:
        raise ValueError(f"lifted matrices are dense oracles; n={n} exceeds {ORACLE_CAP}")


def q_column(graph, m, i):
    """Column i of Q = (1-m) A as (indices, values).

    Entries are (1-m)/n_i at each out-neighbor of page i; they sum to 1-m.
    Raises if page i is dangling (column would not be sub-stochastic).
    """
    if not 0.0 < m < 1.0:
        raise ValueError(f"m must lie in (0, 1), got {m}")
    deg = int(graph.out_degree[i])
    if deg == 0:
        raise ValueError(f"page {i} is dangling; patch the graph first")
    targets = graph.indices[graph.indptr[i]:graph.indptr[i + 1]]
    return targets, np.full(deg, (1.0 - m) / deg)


def q_matrix(graph, m):
    """Q = (1-m) A as a scipy CSC matrix, built from the graph's own arrays
    with value `q_scale(m)` in each column: the independent product that
    the tests pin `WebGraph.q_product`, and every push, against."""
    return sparse.csc_array(
        (np.repeat(graph.q_scale(m), graph.out_degree), graph.indices,
         graph.indptr), shape=(graph.n, graph.n))


def check_probability_vector(v, n, what="vector"):
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{what} must have length {n}")
    if np.any(v < 0):
        raise ValueError(f"{what} has negative entries")
    if abs(v.sum() - 1.0) > 1e-9:
        raise ValueError(f"{what} entries sum to {v.sum()!r}, not 1")
    return v


def neumann_partial(graph, m, k):
    """Partial sum x(k) = sum_{t=0..k} Q^t (m/n) 1 by running accumulation.

    Never materializes matrix powers: k sparse mat-vecs, each term added as
    it is produced. The result increases entrywise with k and tends to x*
    with geometric tail (1-m)^{k+1} / m in L1.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n = graph.n
    q = q_matrix(graph, m)
    term = np.full(n, m / n)
    acc = term.copy()
    for _ in range(k):
        term = q @ term
        acc = acc + term
    return acc


def dense_q(graph, m):
    _check_cap(graph.n)
    return q_matrix(graph, m).toarray()


def lift_single(graph, m, i):
    """(Q_i, R_i, S_i): identity/zero matrices with column i set to q_i / zeroed."""
    _check_cap(graph.n)
    n = graph.n
    idx, vals = q_column(graph, m, i)
    qi = np.zeros(n)
    qi[idx] = vals
    q_lift = np.eye(n)
    q_lift[:, i] = qi
    r_lift = np.zeros((n, n))
    r_lift[:, i] = qi
    s_lift = np.eye(n)
    s_lift[:, i] = 0.0
    return q_lift, r_lift, s_lift


def lift_set(graph, m, phi):
    """(Q_phi, R_phi, S_phi) for an update set phi.

    Satisfies R_phi = sum of R_i over phi, Q_phi = R_phi + S_phi, and
    R_i S_phi = 0 for i in phi (R_i otherwise).
    """
    _check_cap(graph.n)
    n = graph.n
    phi = np.unique(np.asarray(phi, dtype=np.intp))
    q_lift = np.eye(n)
    r_lift = np.zeros((n, n))
    s_lift = np.eye(n)
    for i in phi:
        idx, vals = q_column(graph, m, int(i))
        qi = np.zeros(n)
        qi[idx] = vals
        q_lift[:, i] = qi
        r_lift[:, i] = qi
        s_lift[:, i] = 0.0
    return q_lift, r_lift, s_lift


def lift_group_hat(graph, m, partition, h):
    """Group-step matrix Rhat = R (I - R)^{-1} for R = R_{members of h}.

    Only the chosen group's columns are nonzero; the group step satisfies
    x+ = x + Rhat z and z+ = S (I + Rhat) z.
    """
    _check_cap(graph.n)
    members = partition.members[h]
    _, r_lift, _ = lift_set(graph, m, members)
    eye = np.eye(graph.n)
    # solve Rhat (I - R) = R  <=>  (I - R)^T Rhat^T = R^T
    return np.linalg.solve((eye - r_lift).T, r_lift.T).T


def lift_group_hat_blocks(graph, m, partition, h):
    """Rhat assembled from Q blocks: columns of group h are Q[:, h] (I - Qhh)^{-1}."""
    _check_cap(graph.n)
    members = partition.members[h]
    q = dense_q(graph, m)
    qhh = q[np.ix_(members, members)]
    local = np.linalg.solve(np.eye(members.size) - qhh, np.eye(members.size))
    rhat = np.zeros((graph.n, graph.n))
    rhat[:, members] = q[:, members] @ local
    return rhat


def mean_matrices(graph, m, p):
    """Expected step matrices under singleton selection probabilities p.

    Qbar = (I - P) + Q P and Rbar = Q P with P = diag(p); Qbar's column i
    sums to 1 - m p_i, so it is Schur stable for positive p.
    """
    _check_cap(graph.n)
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0):
        raise ValueError("selection probabilities must all be positive")
    check_probability_vector(p, graph.n, "selection probabilities")
    q = dense_q(graph, m)
    qbar = np.diag(1.0 - p) + q * p
    rbar = q * p
    return qbar, rbar


def analytic_mean_trace(graph, m, p, K):
    """Expected estimate trajectory E[x(0..K)] under singleton selection.

    Computed by the recursion E[x(k+1)] = E[x(k)] + Rbar w(k) with
    w(k+1) = Qbar w(k) and w(0) = E[x(0)] = (m/n) 1. The limit is the
    exact rank vector.
    """
    _check_cap(graph.n)
    qbar, rbar = mean_matrices(graph, m, p)
    n = graph.n
    out = np.empty((K + 1, n))
    w = np.full(n, m / n)
    out[0] = w
    for k in range(K):
        out[k + 1] = out[k] + rbar @ w
        w = qbar @ w
    return out


def spectral_radius(mat, iters=200, tol=1e-12):
    """Power-iteration estimate of the spectral radius of a nonnegative matrix."""
    n = mat.shape[0]
    v = np.full(n, 1.0 / n)
    est = 0.0
    for _ in range(iters):
        w = mat @ v
        nrm = float(np.abs(w).sum())
        if nrm == 0.0:
            return 0.0
        if abs(nrm - est) <= tol * max(est, 1.0):
            return nrm
        est = nrm
        v = w / nrm
    return est


def next_set(schedule):
    """The schedule's next update set as stacked indices, or None where a
    sequence ends: one step of `Schedule.draw`, as a step-by-step loop
    takes it."""
    drawn, sizes = schedule.draw(1, 1)
    return drawn if sizes.size else None


def run_summing_every_step(graph, m, schedule=None, *, factors=None,
                           steps=None, tol):
    """The final state of `engines.run` when it sums z before every step.

    Same draws and steps as `engines.run`, and the stop test
    ``z.sum() <= m tol / (1-m)`` evaluated exactly before each step.
    """
    state = init_state(graph.n, m)
    everyone = np.arange(graph.n, dtype=np.intp)
    z_stop = m * tol / (1.0 - m)
    while steps is None or state.step < steps:
        if state.z.sum() <= z_stop:
            break
        drawn = everyone if schedule is None else next_set(schedule)
        if drawn is None:
            break
        if factors is None:
            step_set(state, graph, m, drawn)
        elif len(drawn) == 0:
            state.step += 1
        else:
            step_group(state, graph, m, factors, int(drawn[0]))
    return state


def run_step_by_step(graph, m, schedule=None, *, factors=None, steps=None,
                     tol=None, cadence=None):
    """(state, trace) of `engines.run` without an oracle, one step per call.

    The same draws, records and stop test as `engines.run`: the trace
    records the first and the last step and, with `cadence` None, the
    first step at or after each sweep of counted updates, else every
    cadence-th step, and a `tol` stops the run before the first step at
    which ``z.sum() <= z_stop``.
    """
    replicas = 1 if schedule is None else schedule.replicas
    state = init_state(graph.n, m, replicas)
    z_stop = m * tol / (1.0 - m) if tol is not None else None
    by_updates = cadence is None
    mark = period = state.n if by_updates else cadence
    trace = Trace()
    blank = np.full(replicas, math.nan)
    engines._record(trace, state, m, None, False, blank)
    while steps is None or state.step < steps:
        if z_stop is not None and state.z.sum() <= z_stop:
            break
        drawn = (np.arange(graph.n) if schedule is None
                 else next_set(schedule))
        if drawn is None:
            break
        if factors is None:
            step_set(state, graph, m, drawn)
        else:
            step_group(state, graph, m, factors, drawn)
        done = state.cumulative_updates if by_updates else state.step
        if done >= mark:
            mark = (done // period + 1) * period
            engines._record(trace, state, m, None, False, blank)
    if trace.final_step != state.step:
        engines._record(trace, state, m, None, False, blank)
    return state, trace


def step_group_full_block(state, graph, m, factors, h):
    """`step_group` pushing n-wide: each drawn group's columns of Q, all n
    rows of them, times zbar, added to its replica's whole block of x and
    z; the group's residual is then reset to the rest of its solve, which
    stops where `step_group`'s does.

    Takes a single group or a stacked draw, like `step_group`, unchecked.
    """
    groups, n = factors.num_groups, graph.n
    q = q_matrix(graph, m)
    state.step += 1
    for i in np.atleast_1d(h).tolist():
        r, g = divmod(i, groups)
        members = factors.members[g] + r * n
        rhs = state.z[members]
        stop = max(_REST_FRACTION * float(rhs.sum()), _ITER_TOL)
        zbar, rest = factors.solve_local(g, rhs, stop)
        inflow = q[:, factors.members[g]] @ zbar
        block = slice(r * n, r * n + n)
        state.x[block] += inflow
        state.z[members] = 0.0
        state.z[block] += inflow
        state.z[members] = rest
        state.cumulative_updates += members.size


def monte_carlo_one_by_one(graph, m, spec, replicas, *, seed, weights=None,
                           factors=None, steps, oracle):
    """Monte Carlo curves from replicas run one after another.

    Replica r is one single `pushrank.engines.run` on its own schedule of
    `spec`, seeded ``derive_seed(seed, r)``: it takes the single-run paths
    of the engines. Each replica's error and updates columns stack as
    C-ordered (replicas, records) rows before the mean and standard error
    are taken. Returns (steps, mean updates, mean error, standard error of
    the error, each replica's defect column as the rows of one array).
    """
    n = graph.n if factors is None else factors.num_groups
    traces = [run(graph, m, Schedule.from_spec(spec, n, derive_seed(seed, r),
                                               weights),
                  factors=factors, steps=steps, oracle=oracle, cadence=1)[1]
              for r in range(replicas)]
    err = np.vstack([t.column("err_l1")[:, 0] for t in traces])
    updates = np.vstack([t.column("updates") for t in traces])
    mean = err.mean(axis=0)
    if replicas > 1:
        stderr = err.std(axis=0, ddof=1) / math.sqrt(replicas)
    else:
        stderr = np.zeros_like(mean)
    defects = np.vstack([t.column("defect")[:, 0] for t in traces])
    return traces[0].steps, updates.mean(axis=0), mean, stderr, defects


class DenseDefect:
    """The L1 defect of x + (I - Q)^{-1} Q z against x*, per row of (R, n)
    x and z, from the LU factors of I - Q: the dense value that
    `DenseOracle.conservation_defect` bounds by ||rho||_1 / m.

    Uses (I - Q)^{-1} Q = (I - Q)^{-1} - I to reuse the factorization.
    """

    def __init__(self, graph, m):
        from scipy import linalg

        lu = linalg.lu_factor(np.eye(graph.n) - q_matrix(graph, m).toarray())
        self._solve = lambda rhs: linalg.lu_solve(lu, rhs)
        self.x_star = self._solve(np.full(graph.n, m / graph.n))

    def __call__(self, x, z):
        # in place, in the order of x + resolved - z - x*
        defect = self._solve(z.T).T
        defect += x
        defect -= z
        defect -= self.x_star
        return np.abs(defect, out=defect).sum(axis=-1)
