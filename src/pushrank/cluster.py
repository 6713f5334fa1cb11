"""Group updates: a group first solves for its intra-group mass, then pushes.

For a partition of the pages, write Qhh for the diagonal block of
Q = (1-m) A belonging to group h. When group h updates, the limit of
repeating the set update on h forever is reached directly:

    zbar = (I - Qhh)^{-1} z_h          (local solve, group-sized)
    x   += Q[:, h] @ zbar              (push along the group's out-links)
    z   += Q[:, h] @ zbar,  then z_h = 0

The push is the same in-place step as a set update (`PushState.push`),
into the rows the group's columns reach: `GroupFactors` keeps those rows,
ascending, and the columns with their row indices renumbered into them.
The renumbering keeps each column's order, so every reached row sums its
inflow in the order the full mat-vec ``Q[:, h] @ zbar`` does, bit for bit,
and a step costs O(group size + nnz of the group's columns) besides the
local solve. A step returns the residual its group held, the sum of z_h:
the push only adds to z outside the group and leaves the group the
non-negative rest of its solve, so z.sum() falls by at most that, and
`pushrank.engines.run` lowers its bound on z.sum() by it.
Each block (I - Qhh) is nonsingular because Qhh inherits Schur stability
from Q, so the local solve always exists. Groups above `DENSE_GROUP_CAP`
members sum the series zbar = sum_t Qhh^t z_h instead and stop once a
term is negligible; that first unsummed term stays in z_h, so the
residual still certifies the error exactly. Factorizations are computed
once per partition (`GroupFactors`) and shared across steps and replicas;
`zbar` is transient. Runs go through `pushrank.engines.run` with
``factors=``.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailure

__all__ = ["GroupFactors", "step_group", "DENSE_GROUP_CAP"]

DENSE_GROUP_CAP = 512
_ITER_TOL = 1e-13
_ITER_MAX = 100_000


class GroupFactors:
    """Per-group local solvers for (I - Qhh) plus each group's columns of Q.

    Groups up to `DENSE_GROUP_CAP` members (read when the factors are
    built) get a dense LU factorization, of I - Qhh written into one
    buffer that the factorization overwrites; larger groups sum the series
    zbar = rhs + Qhh rhs + Qhh^2 rhs + ..., which converges geometrically
    (Qhh is Schur stable) and avoids storing a possibly dense inverse.
    Group h's columns of Q are kept compact: `block_rows[h]` lists the
    rows they reach, ascending, and `block_columns[h]` is the
    len(block_rows[h]) x group-size block of those rows.
    """

    __slots__ = ("members", "block_rows", "block_columns", "_dense_lu",
                 "_sparse_qhh", "_getrs")

    def __init__(self, graph, m, partition):
        if partition.n != graph.n:
            raise ValueError("partition and graph disagree on page count")
        from scipy import linalg, sparse  # only the group factors need it

        # LAPACK's solve with LU factors, fetched once for every group
        self._getrs = linalg.get_lapack_funcs("getrs", dtype=np.float64)
        q = graph.q_matrix(m)
        self.members = partition.members
        self.block_rows = []
        self.block_columns = []
        self._dense_lu = []
        self._sparse_qhh = []
        for h, mem in enumerate(self.members):
            cols = q[:, mem]
            # renumbering rows into the ascending reached rows is monotone,
            # so each column keeps the order of its entries
            rows, renumbered = np.unique(cols.indices, return_inverse=True)
            self.block_rows.append(rows)
            self.block_columns.append(sparse.csc_array(
                (cols.data, renumbered, cols.indptr),
                shape=(rows.size, mem.size)))
            qhh = cols[mem, :]
            if mem.size <= DENSE_GROUP_CAP:
                # -q at Qhh's nonzeros (none repeats), then 1.0 added on the
                # diagonal: the floats of np.eye(s) - qhh.toarray()
                local = np.arange(mem.size)
                a = np.zeros((mem.size, mem.size), order="F")
                a[qhh.indices, local.repeat(np.diff(qhh.indptr))] = -qhh.data
                a[local, local] += 1.0
                lu, piv = linalg.lu_factor(a, overwrite_a=True,
                                           check_finite=False)
                if np.any(np.diag(lu) == 0.0):
                    raise NumericalFailure(f"singular local block for group {h}")
                self._dense_lu.append((lu, piv))
                self._sparse_qhh.append(None)
            else:
                self._dense_lu.append(None)
                self._sparse_qhh.append(qhh.tocsc())

    @property
    def num_groups(self):
        return len(self.members)

    def solve_local(self, h, rhs):
        """(zbar, rest) with (I - Qhh) zbar = rhs - rest for group h.

        Dense groups solve exactly and leave rest 0.0. Larger groups stop
        summing the series at the first term of L1 size 1e-13 or less and
        return that term as `rest`, the mass the solve did not absorb.
        """
        lu = self._dense_lu[h]
        if lu is not None:
            # the factor was checked when built and rhs is engine state
            zbar, info = self._getrs(*lu, rhs)
            if info != 0:
                raise NumericalFailure(f"local solve for group {h} failed: "
                                       f"LAPACK getrs info {info}")
            return zbar, 0.0
        qhh = self._sparse_qhh[h]
        zbar = rhs.copy()
        term = rhs
        for _ in range(_ITER_MAX):
            term = qhh @ term
            if float(np.abs(term).sum()) <= _ITER_TOL:
                return zbar, term
            zbar += term
        raise NumericalFailure(f"local solve for group {h} failed to converge")


def step_group(state, graph, m, factors, h):
    """One update by group h, in place: local solve, push, keep the unabsorbed rest.

    Equivalent to the limit of infinitely many simultaneous set updates by
    the group's member pages; the group's own residual ends at the rest
    of the local solve (exactly zero for dense groups). `h` may also be a
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
