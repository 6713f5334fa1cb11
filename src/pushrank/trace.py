"""Per-step convergence traces and the package's one CSV writer.

`write_table` turns a header and equal-length columns into CSV bytes:
integer columns as plain integers, float columns at 17 significant digits
(`format_float`), so every file the package writes round-trips losslessly
and diffs cleanly across runs. Missing values serialize as ``nan``.

Trace schema (header is byte-exact): ``step,updates,err_l1,cert,defect``;
optional per-page state snapshots append columns ``x0..x{n-1}``. ``defect``
is a bound on the conservation defect, ``||rho||_1 / m`` for the residual
rho of the push invariant ``(I - Q) x + Q z = (m/n) 1``, from one sparse
product with Q (`pushrank.solvers.DenseOracle.conservation_defect`). A
trace holds err_l1, cert and defect per replica of a run
(`pushrank.engines`); its CSV and its ``final_*`` values are those of
replica 0.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Trace", "CSV_HEADER", "format_float", "write_table"]

CSV_HEADER = "step,updates,err_l1,cert,defect"


def format_float(v):
    return f"{v:.17g}"


def write_table(path, header, columns):
    """Write a CSV file: the `header` names, then one row per column index.

    Integer columns are written with `str`, all others with `format_float`.
    """
    cells = []
    for col in columns:
        col = np.asarray(col)
        fmt = str if col.dtype.kind in "iu" else format_float
        cells.append([fmt(v) for v in col.tolist()])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cells):
            fh.write(",".join(row) + "\n")


def _row(values):
    """A record's values as an array of at least one dimension, an array
    that has one as given."""
    if isinstance(values, np.ndarray) and values.ndim:
        return values
    return np.atleast_1d(values)


class Trace:
    """Append-only record of (step, cumulative updates, error columns).

    `err_l1` is the exact error against the oracle rank vector, `cert` the
    residual-based certificate, `defect` the conservation bound; any of
    them may be NaN when not computable for the run at hand. Each record
    of these three is an array of one entry per replica (a scalar given
    to `append` is one replica's), `column` returns them as (records,
    replicas) arrays, and `updates` counts the updates of all replicas.
    """

    __slots__ = ("steps", "updates", "err_l1", "cert", "defect", "x_rows")

    def __init__(self):
        self.steps = []
        self.updates = []
        self.err_l1 = []
        self.cert = []
        self.defect = []
        self.x_rows = []

    def append(self, step, updates, err_l1=math.nan, cert=math.nan,
               defect=math.nan, x=None):
        self.steps.append(int(step))
        self.updates.append(int(updates))
        self.err_l1.append(_row(err_l1))
        self.cert.append(_row(cert))
        self.defect.append(_row(defect))
        if x is not None:
            self.x_rows.append(np.array(x, dtype=float))

    @property
    def has_state(self):
        return bool(self.x_rows)

    def column(self, name):
        return np.asarray(getattr(self, name), dtype=float)

    @property
    def final_step(self):
        return self.steps[-1]

    @property
    def final_updates(self):
        return self.updates[-1]

    @property
    def final_err(self):
        return self.err_l1[-1][0]

    @property
    def final_cert(self):
        return self.cert[-1][0]

    def write_csv(self, path):
        header = CSV_HEADER.split(",")
        columns = [self.steps, self.updates]
        columns += [self.column(name)[:, 0] for name in header[2:]]
        if self.has_state:
            x = np.array(self.x_rows)
            header += [f"x{i}" for i in range(x.shape[1])]
            columns += list(x.T)
        write_table(path, header, columns)
