"""Group updates: a group first solves for its intra-group mass, then pushes.

For a partition of the pages, write Qhh for the diagonal block of
Q = (1-m) A belonging to group h. When group h updates, the limit of
repeating the set update on h forever is approached directly:

    zbar = sum_t Qhh^t z_h             (local series, group-sized)
    x   += Q[:, h] @ zbar              (push along the group's out-links)
    z   += Q[:, h] @ zbar,  then z_h = rest

Each term of the series is one round of pushes inside the group. The
columns of Qhh sum to at most 1-m, so the terms shrink geometrically;
the sum stops at the first term of L1 size `_ITER_TOL` or less, and that
term, `rest`, stays in z_h, so the residual still certifies the error
exactly. No group stores a factor: `GroupFactors` keeps each group's
sparse Qhh and its columns of Q, O(nnz + n) for all groups, built once
per partition and shared across steps and replicas.

The push is the same in-place step as a set update (`PushState.push`),
into the rows the group's columns reach: `GroupFactors` keeps those rows,
ascending, and the columns with their row indices renumbered into them.
The renumbering keeps each column's order, so every reached row sums its
inflow in the order the full mat-vec ``Q[:, h] @ zbar`` does, bit for bit,
and a step costs O(group size + nnz of the group's columns) besides the
local series. A step returns the residual its group held, the sum of z_h:
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

_ITER_TOL = 1e-13


class GroupFactors:
    """Per-group local series for (I - Qhh)^{-1} plus each group's columns of Q.

    Group h keeps its block Qhh of Q, sparse, for the series
    zbar = rhs + Qhh rhs + Qhh^2 rhs + ..., and its columns of Q compact:
    `block_rows[h]` lists the rows they reach, ascending, and
    `block_columns[h]` is the len(block_rows[h]) x group-size block of
    those rows.
    """

    __slots__ = ("members", "block_rows", "block_columns", "_qhh", "_decay")

    def __init__(self, graph, m, partition):
        if partition.n != graph.n:
            raise ValueError("partition and graph disagree on page count")
        from scipy import sparse  # only the group factors need it

        q = graph.q_matrix(m)
        # terms shrink by 1-m each, up to a few rounding units per term; the
        # guard on the term count allows 2^-20 of the count for those
        self._decay = math.log1p(-m) * (1 - 2.0 ** -20)
        self.members = partition.members
        self.block_rows = []
        self.block_columns = []
        self._qhh = []
        for mem in self.members:
            cols = q[:, mem]
            # renumbering rows into the ascending reached rows is monotone,
            # so each column keeps the order of its entries
            rows, renumbered = np.unique(cols.indices, return_inverse=True)
            self.block_rows.append(rows)
            self.block_columns.append(sparse.csc_array(
                (cols.data, renumbered, cols.indptr),
                shape=(rows.size, mem.size)))
            self._qhh.append(cols[mem, :].tocsc())

    @property
    def num_groups(self):
        return len(self.members)

    def solve_local(self, h, rhs):
        """(zbar, rest) with (I - Qhh) zbar = rhs - rest for group h.

        Sums the series until the first term of L1 size 1e-13 or less and
        returns that term as `rest`, the mass the solve did not absorb.
        Every term is non-negative (Qhh >= 0, rhs >= 0) and at most
        (1-m)^t ||rhs||_1, so the sum ends within
        ln(1e-13 / ||rhs||_1) / ln(1-m) terms; past that bound, as for a
        rhs that is not finite, it raises `NumericalFailure`.
        """
        qhh = self._qhh[h]
        total = float(rhs.sum())
        limit = 1
        if _ITER_TOL < total < math.inf:
            limit += math.ceil(math.log(_ITER_TOL / total) / self._decay)
        zbar = rhs.copy()
        term = rhs
        for _ in range(limit):
            term = qhh @ term
            if float(term.sum()) <= _ITER_TOL:
                return zbar, term
            zbar += term
        raise NumericalFailure(f"local solve for group {h} failed to converge")


def step_group(state, graph, m, factors, h):
    """One update by group h, in place: local series, push, keep the unabsorbed rest.

    Approaches the limit of infinitely many simultaneous set updates by
    the group's member pages; the group's own residual ends at the rest
    of the local series, of L1 size 1e-13 or less. `h` may also be a
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
        held += float(rhs.sum())
        zbar, rest = factors.solve_local(g, rhs)
        state.push(members, rows, factors.block_columns[g] @ zbar)
        state.z[members] = rest
    return held
