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

Engines are single-threaded and deterministic; replicas may run
concurrently on the shared immutable graph, each owning its state and
schedule stream. Inflows accumulate in ascending sender index, so a push
by any set of pages reproduces the sparse mat-vec ``Q @ (mask * z)`` bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster import step_group
from .solvers import check_probability_vector
from .trace import Trace

__all__ = ["PushState", "init_state", "step_set", "exact_error", "run"]


@dataclass
class PushState:
    """Estimate/residual pair plus step and update-cost counters."""

    x: np.ndarray
    z: np.ndarray
    step: int = 0
    cumulative_updates: int = 0

    @property
    def n(self):
        return self.x.size

    def copy(self):
        return PushState(self.x.copy(), self.z.copy(), self.step,
                         self.cumulative_updates)

    def push(self, senders, inflow):
        """Finish one step in place: everyone integrates `inflow` into x;
        the senders restart their residual from it, the rest add it to z."""
        self.x += inflow
        self.z[senders] = 0.0
        self.z += inflow
        self.step += 1
        self.cumulative_updates += int(senders.size)


def init_state(n, m, v=None):
    """Fresh state x = z = (m/n) 1, or m*v for a personalization vector v."""
    if v is None:
        x = np.full(n, m / n)
    else:
        x = m * check_probability_vector(v, n, "personalization vector")
    return PushState(x, x.copy())


def _normalize_phi(graph, phi):
    arr = np.asarray(phi, dtype=np.intp)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size > 1 and not np.all(arr[1:] > arr[:-1]):
        arr = np.unique(arr)
    if arr.size and (arr[0] < 0 or arr[-1] >= graph.n):
        raise ValueError(f"update set contains pages outside 0..{graph.n - 1}")
    return arr


def step_set(state, graph, m, phi):
    """One simultaneous update by the page set phi (may be empty), in place.

    x_i += inflow_i for every page; senders restart their residual from
    the inflow alone (z_i = inflow_i for i in phi) while everyone else
    integrates it (z_i += inflow_i). A singleton phi is exactly one gossip
    update, the set of all pages one synchronous step x += Qz, z = Qz.
    """
    phi = _normalize_phi(graph, phi)
    z = state.z
    if phi.size == graph.n:
        inflow = graph.q_matrix(m) @ z
    else:
        # scatter along each sender's out-links: O(out-degree) per sender
        inflow = np.zeros(graph.n)
        indptr, indices = graph.indptr, graph.indices
        for j in phi:
            lo, hi = indptr[j], indptr[j + 1]
            if hi > lo:
                inflow[indices[lo:hi]] += ((1.0 - m) / (hi - lo)) * z[j]
    state.push(phi, inflow)


def exact_error(state, m):
    """||x* - x||_1 computed from the residual alone: ((1-m)/m) ||z||_1.

    Valid on patched graphs, where every column of Q sums to 1-m; no
    knowledge of x* is needed.
    """
    return (1.0 - m) / m * float(state.z.sum())


def _record(trace, state, m, oracle, record_x=False):
    cert = exact_error(state, m)
    if oracle is not None:
        err = oracle.error_l1(state.x)
        defect = oracle.conservation_defect(state.x, state.z)
    else:
        err = defect = math.nan
    trace.append(state.step, state.cumulative_updates, err_l1=err,
                 cert=cert, defect=defect, x=state.x if record_x else None)


def run(graph, m, schedule=None, *, factors=None, steps=None, tol=None,
        oracle=None, cadence=1, v=None, record_x=False):
    """Run one engine from the initial state; returns (state, trace).

    Each step pushes the set that `schedule` draws, or every page when
    `schedule` is None (synchronous). With `factors` (a
    `pushrank.cluster.GroupFactors`) the schedule draws one group index
    per step, an empty draw being a no-op step. Stops when the residual
    certificate reaches `tol`, after `steps` steps, or when the schedule
    is exhausted, whichever comes first. The trace records every
    `cadence`-th step (plus the first and last); err/defect columns are
    filled when a dense oracle is supplied. The oracle solves for uniform
    teleportation, so it cannot be combined with a personalization `v`.
    """
    if steps is None and tol is None:
        raise ValueError("need steps and/or tol to bound the run")
    if tol is not None and not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")
    if v is not None and oracle is not None:
        raise ValueError("the dense oracle assumes uniform teleportation; "
                         "it cannot check a personalized run")
    state = init_state(graph.n, m, v)
    everyone = np.arange(graph.n, dtype=np.intp)
    # stopping on the certificate guarantees ||x*-x||_1 <= tol without an oracle
    z_stop = m * tol / (1.0 - m) if tol is not None else -1.0
    trace = Trace()
    _record(trace, state, m, oracle, record_x)
    while steps is None or state.step < steps:
        if state.z.sum() <= z_stop:
            break
        drawn = everyone if schedule is None else schedule.next(state.step)
        if drawn is None:
            break
        if factors is None:
            step_set(state, graph, m, drawn)
        elif len(drawn) == 0:
            state.step += 1          # an empty group draw is a no-op step
        elif len(drawn) == 1:
            step_group(state, graph, m, factors, int(drawn[0]))
        else:
            raise ValueError("group schedules must draw one group per step")
        if state.step % cadence == 0:
            _record(trace, state, m, oracle, record_x)
    if trace.final_step != state.step:
        _record(trace, state, m, oracle, record_x)
    return state, trace
