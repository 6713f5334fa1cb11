"""Two-state residual-push engines.

Every engine carries a pair of per-page vectors: ``x`` accumulates the
PageRank estimate, ``z`` holds residual mass still in flight. Both start at
(m/n) 1. A page that updates pushes (1-m)/n_j of its residual along each
of its out-links; receivers add the inflow to both x and z, and the
sender's own residual is reset. The estimate x grows entrywise and never
exceeds x*, and the residual certifies the distance to the solution:
``||x* - x||_1 = ((1-m)/m) ||z||_1`` on any patched graph.

There is one step: a set of pages pushes at once (`step_set`). A
synchronous step is the set of every page, a gossip step a single page,
and a group step (`pushrank.cluster.step_group`) first solves for its
group's intra-group mass and then pushes the same way. Steps mutate the
state they are given. One driver, `run`, draws the sets or groups and
stops on the certificate.

A step costs what its senders send. A single page writes its inflow
straight into x and z at its out-links: O(out-degree). Any other partial
set gathers its senders' out-links and sums each target's inflow in one
`bincount`: O(sum of the senders' out-degrees, times a log for the sort).
The set of every page pushes with one sparse mat-vec, ``Q @ z``:
O(nnz + n). Every path sums a target's inflow from 0.0 in ascending
sender index and touches no page it does not reach, so a push by any set
of pages reproduces ``x + Q @ (mask * z)`` and ``(1 - mask) * z +
Q @ (mask * z)`` bit for bit.

Every run is R replicas stacked in one state, a single run being R = 1:
replica r holds pages ``r n .. r n + n - 1``, so x and z read as (R, n)
C-order arrays, and the schedule draws for all R (`pushrank.scheduling`).
A step pushes the union of the replicas' page draws, each sender into its
own block (target = the block's offset plus the out-link), through the
gathered path when R > 1; a group step solves and pushes replica by
replica, each into its own block only. Replicas never mix, and each
follows the trajectory it would follow alone, bit for bit. A stacked step
counts once however many replicas push in it. Each record holds the
certificate of every replica, from one sum of z per row, and one oracle
call checks them all. Engines are single-threaded and deterministic.

`run` records the first step, the last, and by default every step on
graphs of up to 1,000 pages, else the first step at or after each
multiple of the state's size in counted updates (one sweep per replica);
with a `cadence`, every cadence-th step. A record whose conservation
defect exceeds `DEFECT_ABORT` in any replica aborts the run there.

The certificate is not summed every step. After a single-page or gathered
push the state keeps a running ||z||_1 (`PushState.mass`), moved by the
step's sent minus pushed mass, and a bound on its rounding drift that
grows with the updates since the last exact sum. A push to a block of
pages (every page, or a group step's replica) rewrites it wholesale and
leaves the running mass unknown until the next exact sum. With a `tol`
(single runs only), `run` sums z exactly only when the running value is
unknown or within its drift of the stop level, or n updates have passed
since the last exact sum. So a run stops at the step, and with the state,
that an exact sum before every step picks, and without a `tol` no step
sums z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster import step_group
from .errors import NumericalFailure
from .trace import Trace

__all__ = ["PushState", "init_state", "step_set", "exact_error", "run",
           "DEFECT_ABORT"]

_UNIT_ROUNDOFF = 2.0 ** -53
DEFECT_ABORT = 1e-6


@dataclass
class PushState:
    """Estimate/residual pair, step and update-cost counters, and a running
    certificate.

    `mass` follows z.sum() from step to step without summing z, and
    `drift` bounds |mass - z.sum()|; `resync` sums z exactly and resets
    both. A push to a block of pages sets `drift` to infinity, the running
    mass unknown. Editing z by hand leaves them stale until the next `resync`.
    """

    x: np.ndarray
    z: np.ndarray
    step: int = 0
    cumulative_updates: int = 0
    mass: float | None = None
    drift: float = 0.0
    synced_at: int = 0       # cumulative_updates at the last exact sum

    def __post_init__(self):
        if self.mass is None:
            self.resync()

    @property
    def n(self):
        return self.x.size

    def resync(self):
        """Sum z exactly, make it the running mass and return it."""
        self.mass = float(self.z.sum())
        # any summation order of n non-negative terms is within (n-1)u of
        # the real sum, so two exact sums differ by at most 2nu of it
        self.drift = 2 * self.n * _UNIT_ROUNDOFF * self.mass
        self.synced_at = self.cumulative_updates
        return self.mass

    def push(self, senders, rows, inflow):
        """Push in place: the pages `rows` (an index array, or a slice: a
        block of pages, such as all) take `inflow` into x and z; the
        senders' residual is reset first, so a sender that receives keeps
        only what it receives. Pushing to a block leaves the running mass
        unknown until the next `resync`. The caller counts the step."""
        self.x[rows] += inflow
        self.z[senders] = 0.0
        self.z[rows] += inflow
        if isinstance(rows, slice):
            self.drift = math.inf
        self.cumulative_updates += int(senders.size)

    def account(self, change, terms):
        """Move the running mass by `change`, a sum whose rounding error is
        at most `terms` unit roundoffs of the mass (bounded twice over)."""
        self.mass += change
        self.drift += 2 * terms * _UNIT_ROUNDOFF * abs(self.mass)


def init_state(n, m, replicas=1):
    """Fresh state x = z = (m/n) 1, uniform teleportation's start, for n
    pages; with `replicas` R, R such states stacked (see the module doc)."""
    x = np.full(replicas * n, m / n)
    return PushState(x, x.copy())


def _normalize_phi(size, phi):
    arr = np.asarray(phi, dtype=np.intp)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size > 1 and not np.all(arr[1:] > arr[:-1]):
        arr = np.unique(arr)
    if arr.size and (arr[0] < 0 or arr[-1] >= size):
        raise ValueError(f"update set contains pages outside 0..{size - 1}")
    return arr


def step_set(state, graph, m, phi):
    """One simultaneous update by the page set phi (may be empty), in place.

    x_i += inflow_i for every page; senders restart their residual from
    the inflow alone (z_i = inflow_i for i in phi) while everyone else
    integrates it (z_i += inflow_i). A singleton phi is exactly one gossip
    update, the set of all pages one synchronous step x += Qz, z = Qz. On
    a stacked state phi holds stacked pages, the union of each replica's
    set, and always takes the gathered path.
    """
    n, size = graph.n, state.z.size
    phi = _normalize_phi(size, phi)
    z = state.z
    indptr, indices = graph.indptr, graph.indices
    state.step += 1
    if phi.size == 0:
        return
    stacked = size != n
    if phi.size == n and not stacked:
        state.push(phi, slice(None), graph.q_matrix(m) @ z)
        return
    if phi.size == 1 and not stacked:
        phi = phi[0]                 # a scalar index writes z[phi] faster
        pushed = z[phi]
        lo, hi = indptr[phi], indptr[phi + 1]
        rows = indices[lo:hi]
        inflow = ((1.0 - m) / (hi - lo)) * pushed if hi > lo else 0.0
        sent = (hi - lo) * inflow
    else:
        # gather the senders' out-links sender by sender: each target sums
        # its inflow from 0.0 in ascending sender order, as Q @ (mask z) does
        pages = phi % n if stacked else phi
        lo = indptr[pages]
        degree = indptr[pages + 1] - lo
        first = np.cumsum(degree) - degree
        links = np.arange(first[-1] + degree[-1]) + np.repeat(lo - first, degree)
        pushed = z[phi]
        sends = (1.0 - m) / np.maximum(degree, 1) * pushed
        targets = indices[links]
        if stacked:              # each sender pushes into its own block
            targets += np.repeat(phi - pages, degree)
        rows, slot = np.unique(targets, return_inverse=True)
        inflow = np.bincount(slot, weights=np.repeat(sends, degree),
                             minlength=rows.size)
        sent = np.dot(degree, sends)
        pushed = pushed.sum()
    state.push(phi, rows, inflow)
    # 3 |phi| + 8 bounds the rounded terms in the mass bookkeeping
    state.account(float(sent - pushed), 3 * phi.size + 8)


def exact_error(state, m):
    """||x* - x||_1 computed from the residual alone: ((1-m)/m) ||z||_1.

    Valid on patched graphs, where every column of Q sums to 1-m; no
    knowledge of x* is needed. Sums z exactly, so it also resyncs the
    state's running mass.
    """
    return (1.0 - m) / m * state.resync()


def _record(trace, state, m, oracle, record_x, replicas):
    """Append the state's record: err, cert and defect per replica. Raise
    `NumericalFailure` if any replica's defect exceeds `DEFECT_ABORT`."""
    x, z = state.x.reshape(replicas, -1), state.z.reshape(replicas, -1)
    cert = (1.0 - m) / m * z.sum(axis=1)
    if oracle is not None:
        err, defect = oracle.error_l1(x), oracle.conservation_defect(x, z)
        worst = np.fmax.reduce(defect)           # NaN only if all are
        if worst > DEFECT_ABORT:
            of = f" of replica {np.nanargmax(defect)}" if replicas > 1 else ""
            raise NumericalFailure(f"conservation defect {worst:.3e} at step "
                                   f"{state.step}{of} exceeds {DEFECT_ABORT:g}")
    else:
        err = defect = np.full(replicas, math.nan)
    trace.append(state.step, state.cumulative_updates, err_l1=err, cert=cert,
                 defect=defect, x=state.x if record_x else None)


def _certified(state, z_stop):
    """Whether z.sum() <= z_stop, decided as the exact sum decides it.

    z is summed only when the running mass is unknown or within its drift
    of z_stop, or n updates have passed since the last exact sum.
    """
    if (state.mass - state.drift > z_stop
            and state.cumulative_updates - state.synced_at < state.n):
        return False
    return state.resync() <= z_stop


def run(graph, m, schedule=None, *, factors=None, steps=None, tol=None,
        oracle=None, cadence=None, record_x=False):
    """Run one engine from `init_state`; returns (state, trace).

    Each step pushes the set that `schedule` draws, or every page when
    `schedule` is None (synchronous). With `factors` (a
    `pushrank.cluster.GroupFactors`) the schedule draws one group index
    per step, an empty draw being a no-op step. Stops when the residual
    certificate reaches `tol`, after `steps` steps, or when the schedule
    is exhausted, whichever comes first. The trace records the steps the
    module doc names; err/defect columns are filled when a dense oracle is
    supplied, and a defect above `DEFECT_ABORT` raises `NumericalFailure`.

    The run has the schedule's R replicas (one without a schedule), in one
    stacked state (see the module doc): the updates column counts the
    pushes of all replicas, and err, cert and defect hold one value per
    replica. A run of R > 1 replicas stops on `steps` or exhaustion alone
    and records no x.
    """
    if steps is None and tol is None:
        raise ValueError("need steps and/or tol to bound the run")
    if tol is not None and not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")
    replicas = 1 if schedule is None else schedule.replicas
    if replicas > 1 and (tol is not None or record_x):
        raise ValueError("a run of stacked replicas takes no tol and "
                         "records no x")
    state = init_state(graph.n, m, replicas)
    if schedule is None:
        everyone = np.arange(state.n, dtype=np.intp)
    # stopping on the certificate guarantees ||x*-x||_1 <= tol without an oracle
    z_stop = m * tol / (1.0 - m) if tol is not None else None
    # record when the step count, or by default above 1,000 pages the
    # update count, reaches `mark`, then move `mark` a period past it
    by_updates = cadence is None and graph.n > 1000
    mark = period = state.n if by_updates else cadence or 1
    trace = Trace()
    _record(trace, state, m, oracle, record_x, replicas)
    while steps is None or state.step < steps:
        if z_stop is not None and _certified(state, z_stop):
            break
        drawn = everyone if schedule is None else schedule.next(state.step)
        if drawn is None:
            break
        if factors is None:
            step_set(state, graph, m, drawn)
        else:
            step_group(state, graph, m, factors, drawn)
        done = state.cumulative_updates if by_updates else state.step
        if done >= mark:
            mark = (done // period + 1) * period
            _record(trace, state, m, oracle, record_x, replicas)
    if trace.final_step != state.step:
        _record(trace, state, m, oracle, record_x, replicas)
    return state, trace
