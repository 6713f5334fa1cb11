"""Self-tests of the benchmark: ``python3 -m pytest -q bench/selftest.py``.

Scaled-down runs of every workload through the same code as the real
benchmark, plus doctored outputs that the checks must catch.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import graphs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {
    "sync-200k": dict(n=2000),
    "gossip-20k": dict(n=2000, steps=3000),
    "cluster-50k": dict(n=3000, group_sizes=(100, 150), big_groups=(1, (520, 600))),
    "mc-100": dict(n=30, replicas=40, steps=30),
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.METRICS
    moved = {name for row in layers.LAYER_MAP for name in row["should_move"]}
    assert moved <= set(run.REPORTED)


def test_generators_are_seeded(tmp_path):
    def files(seed, tag):
        src, dst, _ = graphs.uniform_graph(seed, 500, 8, dangling=3)
        graphs.write_edge_list(tmp_path / f"u{tag}", src, dst)
        src, dst, group_of, stats = graphs.community_graph(
            seed, 2000, (100, 150), (1, (520, 600)), 4, 1, 512)
        graphs.write_edge_list(tmp_path / f"c{tag}", src, dst)
        graphs.write_partition(tmp_path / f"p{tag}", group_of)
        return [(tmp_path / f"{k}{tag}").read_bytes() for k in "ucp"], stats

    first, stats = files(7, "a")
    again, _ = files(7, "b")
    other, _ = files(8, "c")
    assert first == again
    assert all(a != b for a, b in zip(first, other))
    assert stats["groups_above_dense_cap"] == 1


def test_uniform_graph_has_distinct_links_and_no_self_loops():
    src, dst, stats = graphs.uniform_graph(3, 50, 8, dangling=4)
    assert np.all(src != dst)
    pairs = set(zip(src.tolist(), dst.tolist()))
    assert len(pairs) == src.size == stats["edges"] == 46 * 8
    assert np.unique(src).size == 46 and 49 in src


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_every_metric(name, sandbox):
    w = small(name)
    timed = run.run_workload(w, 5, 0.0, 0)
    assert timed["failed"] == 0, timed["failures"]
    assert set(timed["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    # the push of a scaled-down run is too short to resolve us_per_update
    assert all(v["value"] > 0 for k, v in timed["metrics"].items()
               if k != "us_per_update"), timed["metrics"]
    assert set(timed["summary"]) == set(run.REPORTED)
    assert timed["env"]["blas_threads"] == "1" and timed["graph"]["n"] > 0
    tr = run.run_workload(w, 5, 0.0, 1)
    assert tr["failed"] == 0, tr["failures"]
    assert set(tr["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert tr["absent"] == []
    assert (sandbox / "results" / f"{w.name}-seed5.spans.csv").is_file()
    used = {"sync-200k": "engines.step_sync.calls", "gossip-20k": "engines.step_set.calls",
            "cluster-50k": "cluster.step_group.calls",
            "mc-100": "solvers.DenseOracle.error_l1.calls"}[name]
    assert tr["metrics"][used]["value"] > 0
    if name == "cluster-50k":
        assert tr["metrics"]["cluster.GroupFactors.iterative_groups"]["value"] == 1


DOCTORS = {
    "rising cert": ("gossip-20k", lambda text: _bump_cert(text)),
    "wrong header": ("sync-200k", lambda text: text.replace("cert", "certificate", 1)),
    "mc mean 10 stderr off": ("mc-100", lambda text: _shift_mc(text, 10.0)),
}


def _bump_cert(text):
    lines = text.splitlines()
    cells = lines[-1].split(",")
    cells[3] = repr(float(lines[1].split(",")[3]) * 2)
    return "\n".join(lines[:-1] + [",".join(cells)]) + "\n"


def _shift_mc(text, sigmas):
    lines = text.splitlines()
    cells = lines[-1].split(",")
    cells[2] = repr(float(cells[2]) + sigmas * float(cells[3]))
    return "\n".join(lines[:-1] + [",".join(cells)]) + "\n"


@pytest.mark.parametrize("case", list(DOCTORS))
def test_doctored_csv_counts_in_fail_frac(case, sandbox, monkeypatch):
    name, doctor = DOCTORS[case]
    w = small(name)
    real_spawn = run.spawn

    def spawn(cmd, work):
        call = real_spawn(cmd, work)
        csv = Path(cmd[cmd.index("--out") + 1])
        setup = "--steps" in cmd and cmd[cmd.index("--steps") + 1] == "0"
        if not setup:
            csv.write_text(doctor(csv.read_text(encoding="utf-8")), encoding="utf-8")
        return call

    monkeypatch.setattr(run, "spawn", spawn)
    result = run.run_workload(w, 5, 0.0, 0)
    assert result["attempted"] == 2
    assert result["failed"] == 1 and result["fail_frac"] == 0.5, result["failures"]


def test_checks_reject_doctored_text():
    good = "step,updates,err_l1,cert,defect\n0,0,nan,0.5,nan\n1,1,nan,0.4,nan\n"
    cols, problems = checks.parse_csv(good, checks.TRACE_HEADER)
    assert problems == [] and checks.check_common(cols, tol=0.45) == []
    assert checks.check_common(cols, tol=0.3)            # final cert above tol
    cols, _ = checks.parse_csv(good.replace("0.4,", "0.6,"), checks.TRACE_HEADER)
    assert checks.check_common(cols)                      # cert rises
    assert checks.parse_csv(good.replace("step,", "steps,"), checks.TRACE_HEADER)[0] is None
    assert checks.check_gossip(cols, steps=2)             # ended before the budget


def test_sync_stop_step():
    assert checks.sync_stop_step(0.15, 1e-8) == 113
    assert checks.sync_stop_step(0.02, 1e-8) == 911


def test_expected_mc_error_matches_lifted_recursion():
    lifted = pytest.importorskip("pushrank.lifted")
    from pushrank import WebGraph, patch_dangling

    n, m, steps = 40, 0.15, 25
    src, dst, _ = graphs.uniform_graph(11, n, 5, dangling=2)
    out = [[] for _ in range(n)]
    for a, b in zip(src.tolist(), dst.tolist()):
        out[a].append(b)
    graph, _ = patch_dangling(WebGraph(n, out))
    mean = lifted.analytic_mean_trace(graph, m, np.full(n, 1.0 / n), steps)
    want = 1.0 - mean.sum(axis=1)
    got = checks.expected_mc_error(n, src, dst, m, steps)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_missing_function_is_absent_not_fatal(monkeypatch, tmp_path):
    monkeypatch.setattr(traced, "TARGETS", [
        ("engines", "no_such_step", ("state",)),
        ("webgraph", "load_edge_list", ("path", "renamed")),   # call shape changed
        ("no_such_module", "run", ()),
    ])
    rec = traced.Recorder()
    traced.install(rec)
    assert rec.originals == {}
    values = traced.layer_metrics(rec, 1.0, str(tmp_path / "none.csv"))
    assert values["webgraph.load_edge_list.s"] is None
    assert values["engines.step_set.us"] is None
    assert values["cli.main.s"] == 1.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
