from pathlib import Path

import numpy as np
import pytest

from pushrank import ConfigError, ExperimentConfig, cli, compare, monte_carlo, run_experiment
from pushrank.trace import CSV_HEADER

from conftest import (community_graph, random_graph, write_edge_list,
                      write_partition_file)


@pytest.fixture
def cycle_path(tmp_path):
    p = tmp_path / "cycle.txt"
    p.write_text("0 1\n1 0\n")
    return str(p)


@pytest.fixture
def small_graph_path(tmp_path, rng):
    g = random_graph(rng, 20)
    return write_edge_list(g, tmp_path / "g20.txt")


def test_power_run_on_cycle(cycle_path, capsys):
    cfg = ExperimentConfig(graph=cycle_path, algorithm="power", tol=1e-12)
    trace = run_experiment(cfg)
    assert trace.final_err <= 1e-10  # oracle here is (0.5, 0.5)
    out = capsys.readouterr().out
    assert out.startswith("power:") and "err_l1=" in out


def test_trace_csv_header_and_determinism(small_graph_path, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                               schedule="uniform", seed=42, steps=400,
                               out=str(out))
        run_experiment(cfg)
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    assert b1.decode().splitlines()[0] == CSV_HEADER == "step,updates,err_l1,cert,defect"


def test_engine_error_column_monotone_and_certified(small_graph_path):
    for algo, sched in (("sync", None), ("gossip", "uniform"),
                        ("multi", "subset:0.4")):
        cfg = ExperimentConfig(graph=small_graph_path, algorithm=algo,
                               schedule=sched, seed=9, steps=300)
        trace = run_experiment(cfg)
        errs = trace.column("err_l1")
        certs = trace.column("cert")
        assert np.all(np.diff(errs) <= 1e-12)
        assert np.all(np.abs(errs - certs) <= 1e-9)
        assert np.nanmax(trace.column("defect")) <= 1e-10


def test_cluster_whole_graph_single_update(small_graph_path, tmp_path, rng):
    part_path = tmp_path / "whole.txt"
    part_path.write_text("".join(f"{i} 0\n" for i in range(20)))
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="cluster",
                           partition=str(part_path), schedule="periodic",
                           tol=1e-9)
    trace = run_experiment(cfg)
    assert trace.final_step == 1
    assert trace.final_err <= 1e-10


def test_config_validation_errors(cycle_path):
    with pytest.raises(ConfigError, match="partition"):
        ExperimentConfig(graph=cycle_path, algorithm="cluster").validate()
    with pytest.raises(ConfigError, match="partition"):
        ExperimentConfig(graph=cycle_path, algorithm="gossip",
                         partition="p.txt").validate()
    with pytest.raises(ConfigError, match="schedule"):
        ExperimentConfig(graph=cycle_path, algorithm="power",
                         schedule="uniform").validate()
    with pytest.raises(ConfigError, match="algorithm"):
        ExperimentConfig(graph=cycle_path, algorithm="bogus").validate()
    with pytest.raises(ConfigError, match="m must"):
        ExperimentConfig(graph=cycle_path, algorithm="power", m=1.5).validate()
    with pytest.raises(ConfigError, match="cadence"):
        ExperimentConfig(graph=cycle_path, algorithm="power",
                         cadence=0).validate()


def test_bad_schedule_specs(small_graph_path):
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                           schedule="roundrobin", steps=10)
    with pytest.raises(ConfigError, match="gossip draws one page"):
        run_experiment(cfg)
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="multi",
                           schedule="subset:oops", steps=10)
    with pytest.raises(ConfigError, match="subset"):
        run_experiment(cfg)
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="multi",
                           schedule="nope", steps=10)
    with pytest.raises(ConfigError, match="unknown schedule"):
        run_experiment(cfg)


def test_weights_file_and_indegree(small_graph_path, tmp_path):
    wfile = tmp_path / "w.txt"
    wfile.write_text("".join("1.0\n" for _ in range(20)))
    for spec in ("indegree_plus_one", f"file:{wfile}"):
        cfg = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                               schedule="weighted", weights=spec, seed=3,
                               steps=200)
        trace = run_experiment(cfg)
        assert trace.final_err < 1.0


def test_weights_file_length_checked(small_graph_path, tmp_path):
    wfile = tmp_path / "w.txt"
    wfile.write_text("1.0\n1.0\n")
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                           schedule="weighted", weights=f"file:{wfile}",
                           steps=10)
    with pytest.raises(ConfigError, match="entries"):
        run_experiment(cfg)


def test_cli_rejects_non_finite_weights(small_graph_path, tmp_path, capsys):
    pages = tmp_path / "w.txt"
    pages.write_text("1.0\n" * 19 + "nan\n")
    assert cli.main(["gossip", "--graph", small_graph_path,
                     "--schedule", "weighted", "--weights", f"file:{pages}",
                     "--steps", "10"]) == cli.EXIT_CONFIG
    part = tmp_path / "part.txt"
    part.write_text("".join(f"{i} {i % 2}\n" for i in range(20)))
    groups = tmp_path / "gw.txt"
    groups.write_text("1.0\nnan\n")
    assert cli.main(["cluster", "--graph", small_graph_path,
                     "--partition", str(part), "--schedule", "weighted",
                     "--weights", f"file:{groups}", "--steps", "10"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count("positive and finite") == 2


def test_exact_writes_rank_vector(cycle_path, tmp_path):
    out = tmp_path / "ranks.csv"
    cfg = ExperimentConfig(graph=cycle_path, algorithm="exact", out=str(out))
    run_experiment(cfg)
    lines = out.read_text().splitlines()
    assert lines[0] == "page,x"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    np.testing.assert_allclose(values, [0.5, 0.5], atol=1e-12)


def test_include_x_appends_state_columns(cycle_path, tmp_path):
    out = tmp_path / "t.csv"
    cfg = ExperimentConfig(graph=cycle_path, algorithm="power", tol=1e-12,
                           out=str(out), include_x=True)
    run_experiment(cfg)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER + ",x0,x1"
    final = lines[-1].split(",")
    np.testing.assert_allclose([float(final[-2]), float(final[-1])],
                               [0.5, 0.5], atol=1e-10)


def test_monte_carlo_single_replica_degenerates(small_graph_path):
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                           schedule="uniform", seed=17, steps=100)
    mean = monte_carlo(cfg, replicas=1)
    assert np.all(mean.err_stderr == 0.0)
    assert mean.replicas == 1
    assert len(mean.steps) == 101


def test_monte_carlo_requires_random_schedule(small_graph_path):
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="multi",
                           schedule="roundrobin", steps=50)
    with pytest.raises(ConfigError, match="randomized"):
        monte_carlo(cfg, replicas=4)
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                           schedule="uniform")
    with pytest.raises(ConfigError, match="steps"):
        monte_carlo(cfg, replicas=4)


def test_monte_carlo_uniform_vs_weighted_reported(small_graph_path, tmp_path):
    # both averaged curves are produced; their ordering is reported, not asserted
    curves = {}
    for name, wspec in (("uniform", "uniform"),
                        ("weighted", "indegree_plus_one")):
        sched = "uniform" if name == "uniform" else "weighted"
        cfg = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                               schedule=sched, weights=wspec, seed=1,
                               steps=150, out=str(tmp_path / f"{name}.csv"))
        curves[name] = monte_carlo(cfg, replicas=60)
    for mean in curves.values():
        assert np.all(np.isfinite(mean.err_mean))
        assert mean.err_mean[-1] < mean.err_mean[0]
        header = (tmp_path / "uniform.csv").read_text().splitlines()[0]
        assert header == "step,updates,err_mean,err_stderr"


def test_compare_power_and_sync_share_cost_axis(small_graph_path, tmp_path):
    configs = [
        ExperimentConfig(graph=small_graph_path, algorithm="power", steps=30),
        ExperimentConfig(graph=small_graph_path, algorithm="sync", steps=30),
    ]
    out = tmp_path / "cmp.csv"
    header, rows = compare(configs, out=str(out))
    assert header == ["updates", "err_power", "err_sync"]
    grid = [r[0] for r in rows]
    assert grid == [20 * k for k in range(31)]
    assert out.read_text().splitlines()[0] == "updates,err_power,err_sync"


def test_compare_single_run_degenerate(small_graph_path):
    header, rows = compare([
        ExperimentConfig(graph=small_graph_path, algorithm="sync", steps=10)])
    assert header == ["updates", "err_sync"]
    assert len(rows) == 11


def test_compare_rejects_mismatched_graphs(cycle_path, small_graph_path):
    configs = [
        ExperimentConfig(graph=cycle_path, algorithm="power", steps=5),
        ExperimentConfig(graph=small_graph_path, algorithm="sync", steps=5),
    ]
    with pytest.raises(ConfigError, match="share"):
        compare(configs)


def test_compare_duplicate_labels_disambiguated(small_graph_path):
    configs = [
        ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                         schedule="uniform", seed=1, steps=50),
        ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                         schedule="weighted", weights="indegree_plus_one",
                         seed=1, steps=50),
    ]
    header, _ = compare(configs)
    assert header == ["updates", "err_gossip", "err_gossip_"]


def test_compare_cluster_beats_gossip_on_community_graph(tmp_path, rng):
    g, part = community_graph(rng, num_groups=5, group_size=8,
                              p_in=0.4, p_out=0.02)
    gpath = write_edge_list(g, tmp_path / "comm.txt")
    ppath = write_partition_file(part, tmp_path / "comm_part.txt")
    gossip = ExperimentConfig(graph=gpath, algorithm="gossip",
                              schedule="uniform", seed=2, tol=1e-6,
                              steps=200_000)
    cluster = ExperimentConfig(graph=gpath, algorithm="cluster",
                               partition=ppath, schedule="periodic",
                               tol=1e-6, steps=200_000)
    t_gossip = run_experiment(gossip)
    t_cluster = run_experiment(cluster)
    assert t_cluster.final_updates < t_gossip.final_updates
