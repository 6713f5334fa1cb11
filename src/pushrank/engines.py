"""Two-state residual-push engines.

Every engine carries a pair of per-page vectors: ``x`` accumulates the
PageRank estimate, ``z`` holds residual mass still in flight. Both start at
(m/n) 1. A page that updates pushes (1-m)/n_j of its residual along each
of its out-links; receivers add the inflow to both x and z, and the
sender's own residual is reset. The estimate x grows entrywise and never
exceeds x*, and the residual certifies the distance to the solution:
``||x* - x||_1 = ((1-m)/m) ||z||_1`` on any patched graph.

There is one step: a set of pages pushes at once (`_push_segment`). A
synchronous step is the set of every page, a gossip step a single page,
and a group step (`pushrank.cluster.step_group`) first solves for its
group's intra-group mass and then pushes the same way. Steps mutate the
state they are given. One driver, `run`, draws the sets or groups and
stops on the certificate.

A push costs what its senders send. A partial set gathers its senders'
out-links and sums each target's inflow in one `bincount`: O(sum of the
senders' out-degrees, times a log for the sort). The set of every page
pulls each page's inflow over its in-links, stored as jagged diagonals,
in the graph's one product with Q (`pushrank.webgraph.WebGraph.q_product`,
the reference's too): one gather and one add per diagonal and block of
rows, the blocks shared with a helper thread on two CPUs or more,
O(nnz + n). Both paths sum a target's inflow from 0.0 in ascending
sender index, so a push by any set of pages reproduces
``x + Q @ (mask * z)`` and ``(1 - mask) * z + Q @ (mask * z)`` bit for
bit; the partial sets touch no page they do not reach.

`run` pushes partial sets a segment at a time. A segment is a run of
consecutive steps in which no step's senders were sent or received by an
earlier step of the segment (the conflict rule). Its senders then push
what they hold before the segment, so the steps commute with one
simultaneous update applied in step order: one gather of the segment's
out-links, keyed by (step, target), one `bincount`, the senders' residual
reset, then the inflows added to x and z row by row in step order. That
is bit for bit what the steps do one by one, and a segment costs one
call's fixed overhead plus its senders' out-degrees (times a log for the
sort), where each step used to pay the overhead alone. A uniform gossip
segment on n pages of out-degree d runs about sqrt(pi n / (2 (d + 1)))
steps, 59 at n = 20,000 and d = 8.
`run` draws up to `_LOOKAHEAD` steps or pages ahead, and pushes the sets
as drawn: ascending, duplicate-free and in range (`pushrank.scheduling`).
It ends a segment at the step that reaches the next record (a segment
never spans a record), at the `steps` bound or where the schedule runs
out; `_push_segment` ends it sooner at the first conflict and, with a
`tol`, before the first step at which z might have summed to the stop
level. The set of every page conflicts with any earlier push; starting a
segment, it pushes alone with the pull. A group step, and any step whose
record is one step away, are segments of one step and need no conflict
search. `run` refuses a group schedule that can draw two groups for one
replica in a step before the first, so no group step checks its draw.
Every run is R replicas stacked in one state, a single run being R = 1:
replica r holds pages ``r n .. r n + n - 1``, so x and z read as (R, n)
C-order arrays, and the schedule draws for all R (`pushrank.scheduling`).
A step pushes the union of the replicas' page draws, each sender into its
own block (target = the block's offset plus the out-link), through the
gathered path, and segments apply to the stacked pages as they are; a
group step solves and pushes replica by
replica, each into its own block only. Replicas never mix, and each
follows the trajectory it would follow alone, bit for bit. A stacked step
counts once however many replicas push in it. Each record holds the
certificate of every replica, from one sum of z per row, and one oracle
call checks them all; the record goes to the run's `trace`, which may
keep it whole or reduce it (see `run`). Runs are deterministic: the
pull's helper thread leaves every sum in its order.

`run` records the first step, the last, and by default the first step
at or after each multiple of the state's size in counted updates (one
sweep per replica), on every graph; with a `cadence`, every cadence-th
step. A record whose conservation defect bound
(`pushrank.solvers.DenseOracle.conservation_defect`) exceeds
`DEFECT_ABORT` in any replica aborts the run there.

The certificate is not summed every step. With a `tol` (single runs
only), `run` keeps a lower bound on z.sum(): the last exact sum, less
everything pushed since, less one rounding margin per step or segment,
4 (3n + 8) u times that sum (u the unit roundoff). A push lowers the real
sum by m times the residual it pushes, so by no more than that residual.
`run` sums z only when the bound is at or below the stop level, and a
segment pushes a step only while the bound, less what the segment's
earlier steps pushed, stays above it. A group step lowers the bound by
the residual its group held before the step: it leaves the group the
non-negative rest of its local solve and only adds to z elsewhere, so
z.sum() falls by no more than that (by m times what the group pushes,
`pushrank.cluster`). The push of every page drops the bound to -inf,
so z is summed before the next step.
Between two exact sums the bound falls by the gap to the stop level
while z.sum() falls by m times that, so the gap shrinks by (1 - m) per
sum and a run sums z O(ln(gap ratio) / m) times. It stops at the step,
and with the state, that an exact sum before every step picks, and
without a `tol` no step sums z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster import step_group
from .errors import NumericalFailure
from .trace import Trace

__all__ = ["PushState", "init_state", "run", "DEFECT_ABORT"]

_UNIT_ROUNDOFF = 2.0 ** -53
DEFECT_ABORT = 1e-6
# `run` draws at most this many steps or pages ahead (at least one step);
# `_UNMARKED` is an untouched page's conflict mark
_LOOKAHEAD = 128
_UNMARKED = np.iinfo(np.intp).max


@dataclass
class PushState:
    """Estimate/residual pair and its step and update-cost counters."""

    x: np.ndarray
    z: np.ndarray
    step: int = 0
    cumulative_updates: int = 0

    @property
    def n(self):
        return self.x.size

    def push(self, senders, rows, inflow):
        """Push in place: the pages `rows` take `inflow` into x and z, the
        senders' residual being reset first, so a sender that receives
        keeps only what it receives. `rows` is an index array, whose
        entries add in order (one row may repeat). The caller counts the
        steps."""
        np.add.at(self.x, rows, inflow)
        self.z[senders] = 0.0
        np.add.at(self.z, rows, inflow)
        self.cumulative_updates += int(senders.size)


def init_state(n, m, replicas=1):
    """Fresh state x = z = (m/n) 1, uniform teleportation's start, for n
    pages; with `replicas` R, R such states stacked (see the module doc)."""
    x = np.full(replicas * n, m / n)
    return PushState(x, x.copy())


def _push_segment(state, graph, m, senders, sizes, room=None, marks=None):
    """Push the leading segment of consecutive steps' update sets in place;
    return (steps taken, mass pushed), the sum of the residual its senders
    held, which is inf for the set of every page (see the module doc).
    The set of every page of a single run is a step of its own, x += Q z
    and z = Q z by the graph's product (`WebGraph.q_product`); every other
    set gathers its senders' out-links. Neither forms Q.

    Step j's set is the next `sizes[j]` entries of `senders`, ascending
    and in range; a first set of every page (``sizes[0] == n``) on a
    single run reads none of them. The segment spans at most the given
    steps, and ends early at the first conflict and, given `room`, at the
    step whose senders, with the earlier steps', first push `room` or
    more. `marks`, needed for more than one step, is an intp array of the
    state's size holding `_UNMARKED`: scratch space for the conflict
    search, left as it was found.
    """
    size, n = state.z.size, graph.n
    stacked = size != n
    if not stacked and sizes[0] == n:    # every page: one product, one step
        graph.q_product(m, state.z, out=state.z)
        state.x += state.z
        state.cumulative_updates += n
        state.step += 1
        return 1, math.inf
    count = sizes.size
    ends = sizes.cumsum()
    senders = senders[:ends[-1]]
    if senders.size == 0:
        state.step += count
        return count, 0.0
    # gather the senders' out-links sender by sender, in step order
    pages = senders % n if stacked else senders
    degree, targets = graph.out_links(pages)
    if stacked:                  # each sender pushes into its own block
        targets += (senders - pages).repeat(degree)
    if count > 1:
        step_of = np.arange(count).repeat(sizes[:count])
        link_step = step_of.repeat(degree)
        gathered = count
        if room is not None:
            pushed = state.z[senders]
            if pushed.sum() >= room:
                before = np.bincount(step_of, pushed, minlength=count).cumsum()
                count = int((before >= room).argmax()) + 1
        # a step conflicts when one of its senders was sent or received by
        # an earlier step: the segment ends before it
        touched = np.concatenate((senders, targets))
        np.minimum.at(marks, touched, np.concatenate((step_of, link_step)))
        late = marks[senders] < step_of
        marks[touched] = _UNMARKED
        if late.any():
            count = min(count, int(step_of[late.argmax()]))
        if count < gathered:
            cut = ends[count - 1]
            senders, degree = senders[:cut], degree[:cut]
            cut = degree.sum()
            targets, link_step = targets[:cut], link_step[:cut]
    pushed = state.z[senders]
    sends = (1.0 - m) / np.maximum(degree, 1) * pushed
    # each (step, target) sums its inflow from 0.0 in ascending sender
    # order, as Q @ (mask z) does, and the rows apply in step order; keys
    # that already ascend strictly (one sender, whose targets are stored
    # sorted, or one per step and block) are their own rows
    key = targets if count == 1 else link_step * size + targets
    if senders.size == 1 or (key[1:] > key[:-1]).all():
        rows, inflow = key, sends.repeat(degree)
    else:
        rows, slot = np.unique(key, return_inverse=True)
        inflow = np.bincount(slot, weights=sends.repeat(degree),
                             minlength=rows.size)
    if count > 1:
        rows = rows % size
    state.push(senders, rows, inflow)
    state.step += count
    return count, float(pushed.sum())


def _record(trace, state, m, oracle, record_x, blank):
    """Append the state's record: err, cert and defect per replica, or the
    run's NaN row `blank` (one entry per replica) for err and defect
    without an oracle. Raise `NumericalFailure` if any replica's defect
    exceeds `DEFECT_ABORT`."""
    replicas = blank.size
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
        err = defect = blank
    trace.append(state.step, state.cumulative_updates, err_l1=err, cert=cert,
                 defect=defect, x=state.x if record_x else None)


def _check_bounds(tol, cadence):
    """Refuse a `tol` that is NaN or negative and a `cadence` below 1."""
    if tol is not None and not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")
    if cadence is not None and cadence < 1:
        raise ValueError(f"cadence must be a positive step count, "
                         f"got {cadence}")


def run(graph, m, schedule=None, *, factors=None, steps=None, tol=None,
        oracle=None, cadence=None, record_x=False, trace=None):
    """Run one engine from `init_state`; returns (state, trace).

    Each step pushes the set that `schedule` draws, or every page when
    `schedule` is None (synchronous). With `factors` (a
    `pushrank.cluster.GroupFactors`) the schedule draws one group index
    per step, an empty draw being a no-op step. A schedule over other
    than the run's `graph.n` pages or `factors.num_groups` groups, a
    group schedule that can draw two groups for one replica in a step,
    and a page schedule on a graph with dangling pages, whose certificate
    would not hold, are refused before the first step. Stops when the
    residual certificate reaches `tol`, after `steps` steps, or when the
    schedule is exhausted, whichever comes first. Partial sets push a
    segment of independent steps per call (see the module doc), with the
    state each step alone would leave. The trace records the first and the
    last step and, with `cadence` None, the first step at or after each
    sweep of counted updates, else every cadence-th step; err/defect
    columns are filled when the reference oracle is supplied, and a defect
    above `DEFECT_ABORT` raises `NumericalFailure`.

    The run has the schedule's R replicas (one without a schedule), in one
    stacked state (see the module doc): the updates column counts the
    pushes of all replicas, and err, cert and defect hold one value per
    replica. A run of R > 1 replicas stops on `steps` or exhaustion alone
    and records no x.

    The records go to `trace`, by default a fresh `pushrank.trace.Trace`
    of the run's replicas, which keeps every replica's values; any object
    with `Trace.append`'s signature and a `final_step` takes them, such
    as `pushrank.trace.MeanTrace`, which reduces each record across the
    replicas as it arrives and keeps no per-replica column.
    """
    if steps is None and tol is None:
        raise ValueError("need steps and/or tol to bound the run")
    _check_bounds(tol, cadence)
    replicas = 1 if schedule is None else schedule.replicas
    if replicas > 1 and (tol is not None or record_x):
        raise ValueError("a run of stacked replicas takes no tol and "
                         "records no x")
    if schedule is not None:
        units, unit = ((graph.n, "pages") if factors is None
                       else (factors.num_groups, "groups"))
        if schedule.n != units:
            raise ValueError(f"the schedule draws from {schedule.n} indices, "
                             f"not the run's {units} {unit}")
        if factors is None:      # group factors refuse dangling pages
            graph.require_patched()
        elif schedule.most_drawn() > 1:
            raise ValueError("group schedules must draw one group per step")
    state = init_state(graph.n, m, replicas)
    if schedule is None:
        # `_push_segment` reads no senders for the set of every page
        everyone = np.empty(0, dtype=np.intp), np.array([state.n])
    # stopping on the certificate guarantees ||x*-x||_1 <= tol without an oracle
    z_stop = m * tol / (1.0 - m) if tol is not None else None
    # record when the update count, or with a cadence the step count,
    # reaches `mark`, then move `mark` a period past it
    by_updates = cadence is None
    mark = period = state.n if by_updates else cadence
    if trace is None:
        trace = Trace(replicas)
    blank = np.full(replicas, math.nan)
    _record(trace, state, m, oracle, record_x, blank)
    # the sets drawn ahead of the state's step, as `_push_segment` takes them
    pending, sizes = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    marks = None
    # with a tol, a lower bound on z.sum(): the last exact sum `exact`, less
    # what was pushed since and a rounding `margin` per step or segment (see
    # the module doc)
    floor, margin = -math.inf, 0.0
    while steps is None or state.step < steps:
        if z_stop is not None and floor <= z_stop:
            exact = float(state.z.sum())
            if exact <= z_stop:
                break
            # any summation order of n non-negative terms is within (n-1)u
            # of the real sum, so two exact sums differ by at most 2nu of it;
            # 3n + 8 bounds the rounded terms of a step's or a segment's cut
            # and bookkeeping, each at most `exact`, as none pushes more
            # than n senders (a segment repeats none)
            floor = exact * (1 - 2 * state.n * _UNIT_ROUNDOFF)
            margin = 4 * (3 * state.n + 8) * _UNIT_ROUNDOFF * exact
        floor -= margin
        if schedule is None:
            floor -= _push_segment(state, graph, m, *everyone)[1]
        else:
            # with fewer than half of _LOOKAHEAD pages pending, draw up to
            # _LOOKAHEAD steps or pages (at least a step) ahead
            ahead = _LOOKAHEAD if steps is None else min(_LOOKAHEAD,
                                                         steps - state.step)
            if sizes.size < ahead and pending.size < _LOOKAHEAD // 2:
                drawn, counts = schedule.draw(ahead - sizes.size,
                                              _LOOKAHEAD - pending.size)
                if sizes.size:
                    drawn = np.concatenate((pending, drawn))
                    counts = np.concatenate((sizes, counts))
                pending, sizes = drawn, counts
            if sizes.size == 0:
                break
            if factors is not None:
                floor -= step_group(state, graph, m, factors,
                                    pending[:sizes[0]])
                taken = 1
            else:
                # the segment ends at the latest at the step reaching the
                # next record, searched for only when the pending draws do
                if by_updates:
                    left = mark - state.cumulative_updates
                    reach = (sizes.size if pending.size < left
                             else sizes.cumsum().searchsorted(left) + 1)
                else:
                    reach = mark - state.step
                if reach > 1 and marks is None:
                    marks = np.full(state.n, _UNMARKED, dtype=np.intp)
                room = None if z_stop is None else floor - z_stop
                taken, pushed = _push_segment(state, graph, m, pending,
                                              sizes[:reach], room, marks)
                floor -= pushed
            pending, sizes = pending[sizes[:taken].sum():], sizes[taken:]
        done = state.cumulative_updates if by_updates else state.step
        if done >= mark:
            mark = (done // period + 1) * period
            _record(trace, state, m, oracle, record_x, blank)
    if trace.final_step != state.step:
        _record(trace, state, m, oracle, record_x, blank)
    return state, trace
