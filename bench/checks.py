"""Output checks on the CLI's CSV files, independent of the package internals.

Each check takes the CSV text the CLI wrote (plus what the benchmark knows
about the inputs it generated) and returns a list of problems; an empty
list means the output passed. Nothing here imports `pushrank`: the
expected values come from the CSV schema the CLI documents and from the
benchmark's own arithmetic on the generated graph.
"""

from __future__ import annotations

import math
import re

import numpy as np

TRACE_HEADER = "step,updates,err_l1,cert,defect"
MC_HEADER = "step,updates,err_mean,err_stderr"
SYNC_CERT_RTOL = 1e-12
MC_SIGMAS = 5.0
MC_ATOL = 1e-12


def parse_csv(text, header):
    """(columns, problems) for CSV text whose first line must be `header`.

    `columns` maps each header name to a float array; it is None when the
    header or the row shape is wrong.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != header:
        got = lines[0] if lines else "<empty file>"
        return None, [f"header {got!r} is not {header!r}"]
    names = header.split(",")
    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        return None, ["no data rows"]
    if any(len(r) != len(names) for r in rows):
        return None, [f"a row does not have {len(names)} cells"]
    try:
        table = np.array(rows, dtype=float)
    except ValueError:
        return None, ["a cell is not a number"]
    return {name: table[:, i] for i, name in enumerate(names)}, []


def check_common(cols, tol=None):
    """Step grid ascending from 0; `cert` never rises; tol-stopped runs end at or below tol."""
    problems = []
    steps = cols["step"]
    if steps[0] != 0 or np.any(np.diff(steps) <= 0):
        problems.append("step column does not rise from 0")
    if "cert" in cols:
        cert = cols["cert"]
        rises = np.flatnonzero(np.diff(cert) > 0)
        if rises.size:
            r = int(rises[0]) + 1
            problems.append(f"cert rises at step {int(steps[r])}: "
                            f"{cert[r - 1]!r} -> {cert[r]!r}")
        if tol is not None and not cert[-1] <= tol:
            problems.append(f"final cert {cert[-1]!r} above tol {tol!r}")
    return problems


def sync_stop_step(m, tol):
    """First step k at which the sync certificate (1-m)^(k+1) is at or below tol."""
    k = 0
    while (1.0 - m) ** (k + 1) > tol:
        k += 1
    return k


def check_sync(cols, m, tol):
    """On a graph without dangling pages, cert at step k is exactly (1-m)^(k+1)."""
    problems = []
    steps, cert = cols["step"], cols["cert"]
    want = (1.0 - m) ** (steps + 1)
    rel = np.abs(cert - want) / want
    if not np.all(rel <= SYNC_CERT_RTOL):
        r = int(np.argmax(rel))
        problems.append(f"cert at step {int(steps[r])} is {cert[r]!r}, "
                        f"expected (1-m)^(step+1) = {want[r]!r}")
    stop = sync_stop_step(m, tol)
    if steps[-1] != stop:
        problems.append(f"sync stopped at step {int(steps[-1])}, expected {stop}")
    return problems


def check_gossip(cols, steps):
    """One page per step, and the run uses its whole step budget."""
    problems = []
    if not np.array_equal(cols["updates"], cols["step"]):
        problems.append("gossip updates differ from step count")
    if cols["step"][-1] != steps:
        problems.append(f"gossip ended at step {int(cols['step'][-1])}, "
                        f"budget {steps}")
    return problems


def check_cluster(cols, group_sizes):
    """Each step adds the size of one group to `updates`.

    Between recorded rows `d` steps apart the increase lies between d times
    the smallest and d times the largest group; one step apart it is the
    size of some group.
    """
    problems = []
    sizes = np.asarray(group_sizes)
    d_step = np.diff(cols["step"])
    d_upd = np.diff(cols["updates"])
    if cols["updates"][0] != 0:
        problems.append("cluster updates do not start at 0")
    if np.any(d_upd < d_step * sizes.min()) or np.any(d_upd > d_step * sizes.max()):
        problems.append("cluster updates outside the drawn group sizes")
    single = d_upd[d_step == 1]
    if single.size and not np.all(np.isin(single, sizes)):
        problems.append("a one-step update count matches no group size")
    return problems


def expected_mc_error(n, src, dst, m, steps):
    """E||x* - x(k)||_1 for k = 0..steps under uniform single-page gossip.

    Dense recursion over the patched graph: with w = E[z] and P = I/n,
    E[x(k+1)] = E[x(k)] + Q P w(k) and w(k+1) = (I - P) w(k) + Q P w(k),
    from x(0) = w(0) = (m/n) 1. Because x stays at or below x*, whose
    entries sum to 1, the expected error is 1 - sum E[x(k)].
    """
    a = np.zeros((n, n))
    a[dst, src] = 1.0  # duplicate edges collapse, as the loader does
    deg = a.sum(axis=0)
    a[:, deg == 0] = 1.0  # patched dangling pages link to every page
    q = (1.0 - m) * a / a.sum(axis=0)
    p = 1.0 / n
    w = np.full(n, m / n)
    mass = w.sum()
    out = np.empty(steps + 1)
    out[0] = 1.0 - mass
    for k in range(steps):
        push = q @ (p * w)
        mass += push.sum()
        w = (1.0 - p) * w + push
        out[k + 1] = 1.0 - mass
    return out


def check_mc(cols, expected, steps):
    """Every row's mean error lies within 5 standard errors of the expected error."""
    problems = []
    expected = np.asarray(expected)
    if not np.array_equal(cols["step"], np.arange(steps + 1)):
        return [f"mc step grid is not 0..{steps}"]
    if not np.array_equal(cols["updates"], cols["step"]):
        problems.append("mc mean updates differ from step count")
    dev = np.abs(cols["err_mean"] - expected)
    limit = MC_SIGMAS * cols["err_stderr"] + MC_ATOL
    bad = np.flatnonzero(~(dev <= limit))
    if bad.size:
        r = int(bad[0])
        sig = dev[r] / cols["err_stderr"][r] if cols["err_stderr"][r] else math.inf
        problems.append(f"mc err_mean at step {r} is {sig:.1f} stderr from "
                        f"the expected {expected[r]!r}")
    return problems


def check_summary(stdout, final_step):
    """The CLI's summary line names the step it stopped at."""
    found = re.findall(r"steps=(\d+)", stdout)
    if not found:
        return ["no summary line with steps= on stdout"]
    if int(found[-1]) != final_step:
        return [f"summary says steps={found[-1]}, CSV ends at {final_step}"]
    return []
