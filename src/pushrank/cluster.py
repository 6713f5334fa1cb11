"""Group updates: a group first solves for its intra-group mass, then pushes.

For a partition of the pages, write Qhh for the diagonal block of
Q = (1-m) A belonging to group h. When group h updates, the limit of
repeating the set update on h forever is approached directly:

    zbar = sum_t Qhh^t z_h             (local series, group-sized)
    x   += Q[:, h] @ zbar              (push along the group's out-links)
    z   += Q[:, h] @ zbar,  then z_h = rest

Each term of the series is one round of pushes inside the group, as in
the clustering scheme, where a group interacts locally many times and
then pushes. The columns of Qhh sum to at most 1-m, so the terms shrink
geometrically. A step stops its series at the first term of L1 size
``max(_REST_FRACTION * held, _ITER_TOL)`` or less, `held` being the
residual the group holds: a level that the group knows from its own
residual alone. So a group step approximates the limit to within
`_REST_FRACTION` of what the group held, not to machine precision. The
term that ends the sum, `rest`, stays in z_h, so the residual still
certifies the error exactly at any stop level, and what a step leaves
unabsorbed waits for the group's next step. On the cluster-50k benchmark
graph (m = 0.15) this stop took 10.5 terms a step where a stop at
`_ITER_TOL` alone took 28.4, for 1.0% more steps to the same tol; the
larger fraction 3e-2 cost 2.4-2.7% more steps. No group stores a factor:
`GroupFactors` keeps each group's in-group links, its out-links and its
members' values (1-m)/n_j of Q, O(nnz + n) for all groups, built once
per partition from the graph's CSC arrays, with numpy alone, and shared
across steps and replicas.

A series term ``Qhh @ term`` and the push ``Q[:, h] @ zbar`` are each one
`np.bincount` over the group's links in CSC order, each link weighted by
(1-m)/n_j times the value of its column j: every row sums the products a
CSC mat-vec forms, from 0.0 and in its order, so both equal scipy's
products bit for bit. The push goes into the rows the group's columns
reach, ascending, the out-links' rows renumbered into them, with the
in-place step of a set update (`PushState.push`); a step costs
O(group size + nnz of the group's columns) besides the local series.
A step returns the residual its group held, the sum of z_h:
the push only adds to z outside the group and leaves the group the
non-negative rest of its series, so z.sum() falls by at most that, and
`pushrank.engines.run` lowers its bound on z.sum() by it. Runs go through
`pushrank.engines.run` with ``factors=``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalFailure

__all__ = ["GroupFactors", "step_group"]

# a group's series stops at the first term of L1 size at most
# _REST_FRACTION of the residual the group holds, or at most _ITER_TOL
_REST_FRACTION = 1e-2
_ITER_TOL = 1e-13


class GroupFactors:
    """Per-group local series for (I - Qhh)^{-1} plus each group's columns of Q.

    Group h keeps its members' values (1-m)/n_j (`WebGraph.q_scale`), its
    in-group links, the entries of Qhh, as local row and column indices
    (a page's position in the sorted members), and its out-links
    (`WebGraph.out_links`): `block_rows[h]` lists the rows they reach,
    ascending, and each out-link's row is renumbered into them. All links
    stay in CSC order (see the module doc).
    """

    __slots__ = ("members", "block_rows", "_scale", "_links", "_reached",
                 "_decay")

    def __init__(self, graph, m, partition):
        if partition.n != graph.n:
            raise ValueError("partition and graph disagree on page count")
        scale = graph.q_scale(m)
        # terms shrink by 1-m each, up to a few rounding units per term; the
        # guard on the term count allows 2^-20 of the count for those
        self._decay = math.log1p(-m) * (1 - 2.0 ** -20)
        self.members = partition.members
        self.block_rows = []
        self._scale, self._links, self._reached = [], [], []
        group_of, local = partition.group_of, np.empty(graph.n, dtype=np.intp)
        for h, mem in enumerate(self.members):
            degree, targets = graph.out_links(mem)
            local[mem] = np.arange(mem.size)
            cols = local[mem].repeat(degree)
            # renumbering rows into the ascending reached rows is monotone,
            # so each column keeps the order of its entries
            rows, renumbered = np.unique(targets, return_inverse=True)
            inside = group_of[targets] == h
            self.block_rows.append(rows)
            self._scale.append(scale[mem])
            self._links.append((local[targets[inside]], cols[inside]))
            self._reached.append((renumbered, cols))

    @property
    def num_groups(self):
        return len(self.members)

    def solve_local(self, h, rhs, stop):
        """(zbar, rest) with (I - Qhh) zbar = rhs - rest for group h.

        Sums the series until the first term of L1 size `stop` or less
        and returns that term as `rest`, the mass the solve did not
        absorb; `step_group` passes ``max(_REST_FRACTION * held,
        _ITER_TOL)``. Every term is non-negative (Qhh >= 0, rhs >= 0)
        and at most 1-m times the one before, so a first term of size s
        ends the sum within ceil(ln(stop / s) / ln(1-m)) more terms. It
        raises `NumericalFailure` past that bound, and before the sum if
        the first term or `stop` is not finite, as a rhs that is not
        finite makes them (see `step_group`).
        """
        zbar = rhs.copy()
        term = self._local_product(h, rhs)
        size = float(term.sum())
        if not (size < math.inf and stop < math.inf):
            raise NumericalFailure(f"residual of group {h} is not finite")
        more = 0
        if size > stop:
            more = math.ceil(math.log(stop / size) / self._decay)
        for _ in range(more + 1):
            if size <= stop:
                return zbar, term
            zbar += term
            term = self._local_product(h, term)
            size = float(term.sum())
        raise NumericalFailure(f"local solve for group {h} failed to converge")

    def _local_product(self, h, term):
        """``Qhh @ term``: each in-group link's product (1-m)/n_j term_j,
        summed into its row from 0.0 in CSC order."""
        rows, cols = self._links[h]
        return np.bincount(rows, (self._scale[h] * term).take(cols),
                           term.size)

    def inflow(self, h, zbar):
        """``Q[:, h] @ zbar`` compact, over the rows `block_rows[h]`."""
        renumbered, cols = self._reached[h]
        return np.bincount(renumbered, (self._scale[h] * zbar).take(cols),
                           self.block_rows[h].size)


def step_group(state, graph, m, factors, h):
    """One update by group h, in place: local series, push, keep the unabsorbed rest.

    Approaches the limit of infinitely many simultaneous set updates by
    the group's member pages: the series stops at the first term of L1
    size ``max(_REST_FRACTION * held, _ITER_TOL)`` or less, `held` the
    residual the group holds, and that term stays in the group's
    residual (see the module doc). `h` may also be a
    schedule's draw for the state's R replicas (`pushrank.engines`): at
    most one stacked index ``r G + g`` per replica (G groups), ascending,
    a single run's group being its own index. Replica r solves for its
    group g and pushes into its own block of n pages only, and the step
    counts once; an empty draw is a no-op step. Returns the residual the
    drawn groups held before the step, summed (0.0 for an empty draw).
    """
    groups, n = factors.num_groups, graph.n
    count = groups * (state.n // n)
    drawn = np.atleast_1d(h).tolist()
    for i in drawn:
        if not 0 <= i < count:
            raise ValueError(f"group {i} outside 0..{count - 1}")
    owners = [i // groups for i in drawn]
    if any(a >= b for a, b in zip(owners, owners[1:])):
        raise ValueError("group schedules must draw one group per step")
    state.step += 1
    held = 0.0
    for r, i in zip(owners, drawn):
        g, offset = i - r * groups, r * n
        members, rows = factors.members[g], factors.block_rows[g]
        if offset:
            members, rows = members + offset, rows + offset
        rhs = state.z[members]
        group_held = float(rhs.sum())
        held += group_held
        # nan first, so that a residual that is not finite gives a stop
        # that is not, which `solve_local` refuses
        zbar, rest = factors.solve_local(
            g, rhs, max(_REST_FRACTION * group_held, _ITER_TOL))
        state.push(members, rows, factors.inflow(g, zbar))
        state.z[members] = rest
    return held
