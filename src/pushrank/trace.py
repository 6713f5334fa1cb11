"""Per-step convergence traces and the package's one CSV writer.

`write_table` turns a header and equal-length columns into CSV bytes:
integer columns as plain integers, float columns at 17 significant digits
(`format_float`), so every file the package writes round-trips losslessly
and diffs cleanly across runs. Missing values serialize as ``nan``. It
formats and writes a bounded chunk of rows at a time, so the strings it
holds do not grow with the table.

Trace schema (header is byte-exact): ``step,updates,err_l1,cert,defect``;
optional per-page state snapshots append columns ``x0..x{n-1}``. ``defect``
is a bound on the conservation defect, ``||rho||_1 / m`` for the residual
rho of the push invariant ``(I - Q) x + Q z = (m/n) 1``, from the graph's
product with Q (`pushrank.solvers.DenseOracle.conservation_defect`). A
trace holds err_l1, cert and defect per replica of a run
(`pushrank.engines`), as (records, R) arrays, and steps and updates as
int64 arrays; its CSV and its ``final_*`` values are those of replica 0.
Its columns are `RecordColumns`: arrays that double when full, so a
record costs its values and no object of its own. A run that needs only
a summary of its replicas hands `pushrank.engines.run` another sink
(`pushrank.harness.MeanTrace`).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Trace", "RecordColumns", "record_column", "CSV_HEADER",
           "format_float", "write_table"]

CSV_HEADER = "step,updates,err_l1,cert,defect"
# rows `write_table` formats and writes at a time
_CHUNK_ROWS = 4096


def format_float(v):
    return f"{v:.17g}"


def write_table(path, header, columns):
    """Write a CSV file: the `header` names, then one row per column index.

    Integer columns are written with `str`, all others with `format_float`.
    Rows are formatted and written `_CHUNK_ROWS` at a time, so the strings
    held at once do not grow with the table.
    """
    columns = [np.asarray(col) for col in columns]
    formats = [str if col.dtype.kind in "iu" else format_float
               for col in columns]
    rows = min((col.shape[0] for col in columns), default=0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, rows, _CHUNK_ROWS):
            cells = [map(fmt, col[lo:lo + _CHUNK_ROWS].tolist())
                     for fmt, col in zip(formats, columns)]
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


class RecordColumns:
    """Columns of one row per record, in arrays that grow by doubling.

    Each column is given as an array of no rows, whose dtype and row
    shape its records take; `add` writes one record, and `[i]` is column
    i's filled rows, a view.
    """

    __slots__ = ("count", "_arrays")

    def __init__(self, *empty):
        self.count = 0
        self._arrays = empty

    def add(self, *values):
        k = self.count
        if k == self._arrays[0].shape[0]:
            grown = []
            for old in self._arrays:
                new = np.empty((max(1, 2 * k),) + old.shape[1:], old.dtype)
                new[:k] = old
                grown.append(new)
            self._arrays = grown
        for column, value in zip(self._arrays, values):
            column[k] = value
        self.count = k + 1

    def __getitem__(self, i):
        return self._arrays[i][:self.count]


def _trace_columns(replicas):
    """A trace's empty columns: steps and updates, then err_l1, cert and
    defect, one entry per replica."""
    ints = np.empty(0, dtype=np.int64)
    return RecordColumns(ints, ints, *[np.empty((0, replicas))] * 3)


def record_column(i):
    """A read-only attribute: column i of its owner's `_columns`, a
    `RecordColumns`."""
    return property(lambda self: self._columns[i])


class Trace:
    """Append-only record of (step, cumulative updates, error columns).

    `err_l1` is the exact error against the oracle rank vector, `cert` the
    residual-based certificate, `defect` the conservation bound; any of
    them may be NaN when not computable for the run at hand. `steps` and
    `updates` are int64 arrays of one entry per record, `err_l1`, `cert`
    and `defect` (records, R) float arrays of one entry per replica: the
    first record sets R, and a scalar given to `append` fills its row.
    `updates` counts the updates of all replicas. The columns grow by
    doubling (`RecordColumns`); `x_rows` keeps each record's copy of x,
    when one is given.
    """

    __slots__ = ("_columns", "x_rows")

    steps, updates, err_l1, cert, defect = map(record_column, range(5))

    def __init__(self):
        self._columns = _trace_columns(1)
        self.x_rows = []

    def append(self, step, updates, err_l1=math.nan, cert=math.nan,
               defect=math.nan, x=None):
        values = err_l1, cert, defect
        if self._columns.count == 0:
            self._columns = _trace_columns(max(map(np.size, values)))
        self._columns.add(step, updates, *values)
        if x is not None:
            self.x_rows.append(np.array(x, dtype=float))

    @property
    def has_state(self):
        return bool(self.x_rows)

    def column(self, name):
        return np.asarray(getattr(self, name), dtype=float)

    @property
    def final_step(self):
        return int(self.steps[-1])

    @property
    def final_updates(self):
        return int(self.updates[-1])

    @property
    def final_err(self):
        return self.err_l1[-1, 0]

    @property
    def final_cert(self):
        return self.cert[-1, 0]

    def write_csv(self, path):
        header = CSV_HEADER.split(",")
        columns = [self.steps, self.updates]
        columns += [getattr(self, name)[:, 0] for name in header[2:]]
        if self.has_state:
            x = np.array(self.x_rows)
            header += [f"x{i}" for i in range(x.shape[1])]
            columns += list(x.T)
        write_table(path, header, columns)
