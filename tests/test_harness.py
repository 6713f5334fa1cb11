import bz2
import gzip
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import pushrank
from pushrank import (ConfigError, DenseOracle, ExperimentConfig, GroupFactors,
                      NumericalFailure, ParseError, Schedule, cli, compare,
                      engines, harness, indegree_plus_one_weights,
                      load_edge_list, load_partition, monte_carlo,
                      patch_dangling, run, run_experiment, solvers)
from pushrank.scheduling import RANDOM_KINDS
from pushrank.trace import CSV_HEADER

from conftest import (community_graph, random_graph, random_partition,
                      write_edge_list, write_partition_file)
from oracles import monte_carlo_one_by_one, next_set


def assert_csv_round_trips(path, header, columns):
    """The CSV at `path` has exactly `header` and holds `columns` losslessly.

    Integer columns must hold plain integers; every float cell must parse
    back to the in-memory float64 bit for bit, ``nan`` where it is missing.
    """
    lines = Path(path).read_text().splitlines()
    assert lines[0] == header
    cells = list(zip(*(line.split(",") for line in lines[1:])))
    assert len(cells) == len(columns)
    for got, want in zip(cells, columns):
        want = np.asarray(want)
        assert len(got) == want.size
        if want.dtype.kind in "iu":
            assert all(re.fullmatch(r"-?[0-9]+", c) for c in got)
            assert [int(c) for c in got] == want.tolist()
            continue
        want = want.astype(np.float64)
        missing = np.isnan(want)
        assert all(c == "nan" for c, gap in zip(got, missing) if gap)
        parsed = np.array([float(c) for c in got])
        assert np.array_equal(np.isnan(parsed), missing)
        assert parsed[~missing].tobytes() == want[~missing].tobytes()


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
                               schedule=sched, seed=9 if sched else None,
                               steps=300)
        trace = run_experiment(cfg)
        errs = trace.column("err_l1")[:, 0]
        certs = trace.column("cert")[:, 0]
        assert np.all(np.diff(errs) <= 1e-12)
        assert np.all(np.abs(errs - certs) <= 1e-9)
        assert np.nanmax(trace.column("defect")) <= 1e-10


def test_cluster_whole_graph_single_update(small_graph_path, tmp_path, rng):
    part_path = tmp_path / "whole.txt"
    part_path.write_text("".join(f"{i} 0\n" for i in range(20)))
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="cluster",
                           partition=str(part_path), schedule="roundrobin",
                           tol=1e-9)
    trace = run_experiment(cfg)
    # a step's series stops at `cluster._REST_FRACTION` of the residual
    # held or below, so the certificate falls by at least that factor a step
    assert trace.final_step == 5
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
    with pytest.raises(ConfigError, match="--tol does not apply to exact"):
        ExperimentConfig(graph=cycle_path, algorithm="exact",
                         tol=1e-3).validate()
    with pytest.raises(ConfigError, match="--seed does not apply to sync"):
        ExperimentConfig(graph=cycle_path, algorithm="sync", seed=9).validate()


def test_bad_schedule_refused_before_any_input_is_read(capsys):
    for argv, error in (
            (["gossip", "--schedule", "bogus"], "unknown schedule spec 'bogus'"),
            (["compare", "--runs", "gossip=bogus,sync"],
             "unknown schedule spec 'bogus'"),
            (["compare", "--runs", "power=uniform"],
             "--schedule does not apply to power=uniform runs"),
            (["compare", "--runs", "gossip,sync=bogus"],
             "--schedule does not apply to sync=bogus runs"),
            (["cluster", "--partition", "/nonexistent.groups",
              "--schedule", "subset:0.5"], "unknown schedule spec 'subset:0.5'"),
            (["multi", "--schedule", "subset:oops"],
             "bad subset probability in 'subset:oops'"),
            (["multi", "--schedule", "subset:0"], "must lie in (0, 1], got 0.0"),
            # a weighted spec names its weights, checked as any spec is
            (["gossip", "--schedule", "weighted:bogus"],
             "unknown schedule spec 'weighted:bogus'"),
            (["gossip", "--schedule", "weighted:size"],
             "unknown schedule spec 'weighted:size' for gossip"),
            (["cluster", "--partition", "/nonexistent.groups", "--schedule",
              "weighted:indegree_plus_one"],
             "unknown schedule spec 'weighted:indegree_plus_one' for cluster"),
            (["cluster", "--partition", "/nonexistent.groups",
              "--schedule", "periodic"], "unknown schedule spec 'periodic'")):
        argv += ["--graph", "/nonexistent.txt"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert error in capsys.readouterr().err


def test_power_reads_the_bounds_of_every_engine(monkeypatch, capsys):
    # no bounds: the default tolerance stops the run, at the first step
    # whose certificate is within it; --steps alone turns the tolerance
    # stop off, as for sync
    monkeypatch.setattr(solvers, "REFERENCE_CAP", 0)
    web60 = str(Path(__file__).resolve().parent / "data" / "web60.txt")
    for argv, final in (([], 30), (["--steps", "100"], 100)):
        assert cli.main(["power", "--graph", web60, *argv]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith(f"power: steps={final} ")


def test_power_with_tol_alone_keeps_the_step_cap(monkeypatch, capsys):
    # the step difference or the certificate may never reach a tiny tol;
    # the cap still ends the run, for power as for every engine
    monkeypatch.setattr(harness, "_DEFAULT_STEP_CAP", 50)
    web60 = str(Path(__file__).resolve().parent / "data" / "web60.txt")
    for algo in ("power", "sync"):
        assert cli.main([algo, "--graph", web60, "--tol", "1e-300"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith(f"{algo}: steps=50 ")


def test_default_records_of_a_skewed_cluster_run_lie_a_sweep_apart(
        tmp_path, monkeypatch):
    # one 550-page group and 550 singletons drawn by size: half the steps
    # push 550 pages, half push one, and each sweep of n updates is recorded
    monkeypatch.setattr(solvers, "REFERENCE_CAP", 0)
    n, big = 1100, 550
    rng = np.random.default_rng(3)
    graph, part = tmp_path / "g.txt", tmp_path / "part.txt"
    src = np.repeat(np.arange(n), 3)
    graph.write_text("".join(f"{a} {b}\n" for a, b in
                             zip(src, rng.integers(0, n, src.size))))
    part.write_text("".join(f"{i} {max(0, i - big + 1)}\n" for i in range(n)))
    trace = run_experiment(ExperimentConfig(
        graph=str(graph), algorithm="cluster", partition=str(part),
        schedule="weighted:size", seed=2, steps=100))
    gaps = np.diff(trace.column("updates"))
    assert trace.final_step == 100 and gaps.size > 10
    assert gaps.max() <= n + big


def test_bad_schedule_specs(small_graph_path, tmp_path):
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                           schedule="roundrobin", steps=10)
    with pytest.raises(ConfigError, match="'roundrobin' for gossip"):
        run_experiment(cfg)
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="multi",
                           schedule="subset:oops", steps=10)
    with pytest.raises(ConfigError, match="subset"):
        run_experiment(cfg)
    part = tmp_path / "part.txt"
    part.write_text("".join(f"{i} {i % 2}\n" for i in range(20)))
    for algo, spec in (("multi", "nope"), ("multi", "uniform:3"),
                       ("cluster", "subset:0.5")):
        cfg = ExperimentConfig(
            graph=small_graph_path, algorithm=algo, schedule=spec, steps=10,
            partition=str(part) if algo == "cluster" else None)
        with pytest.raises(ConfigError, match="unknown schedule"):
            run_experiment(cfg)


def test_every_spec_of_a_row_draws_its_own_sets(small_graph_path, tmp_path):
    # on one input with one seed, two specs that draw the same sets are one
    # draw named twice; the groups (sizes 1, 3, 16) tell size weights from
    # none, and a spec that names a file replays what the file holds
    part = tmp_path / "part.txt"
    part.write_text("".join(f"{i} {(i > 0) + (i > 3)}\n" for i in range(20)))
    for algorithm, specs in harness.SCHEDULES.items():
        drawn = {}
        for spec in specs:
            if "file:" in spec:
                continue
            config = ExperimentConfig(
                graph=small_graph_path, algorithm=algorithm,
                schedule=spec.replace("<q>", "0.5"),
                seed=3 if spec.partition(":")[0] in RANDOM_KINDS else None,
                partition=str(part) if algorithm == "cluster" else None,
            ).validate()
            sched = harness._build_schedule(config, harness._Runtime(config))
            drawn[spec] = [next_set(sched).tolist() for _ in range(40)]
        assert [(a, b) for a, b in combinations(drawn, 2)
                if drawn[a] == drawn[b]] == []


def test_weights_file_and_indegree(small_graph_path, tmp_path):
    wfile = tmp_path / "w.txt"
    wfile.write_text("".join("1.0\n" for _ in range(20)))
    for spec in ("indegree_plus_one", f"file:{wfile}"):
        cfg = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                               schedule=f"weighted:{spec}", seed=3, steps=200)
        trace = run_experiment(cfg)
        assert trace.final_err < 1.0


def test_weights_files_hold_one_number_per_line(small_graph_path, tmp_path,
                                                capsys):
    # twenty numbers for twenty pages, but two to a line
    wfile = tmp_path / "w.txt"
    wfile.write_text("1 2\n" * 10)
    argv = ["gossip", "--graph", small_graph_path, "--schedule",
            f"weighted:file:{wfile}", "--steps", "3"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "line 1: expected 'weight', got '1 2'" in capsys.readouterr().err
    # a bad number is named by its line
    wfile.write_text("1.0\n# 2\n1.0 # 3\nheavy\n")
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "line 4: expected numbers, got 'heavy'" in capsys.readouterr().err
    # an empty file is refused by its count, without a NumPy warning
    wfile.write_text("# no weights\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="has 0 entries for 20 pages"):
            run_experiment(ExperimentConfig(
                graph=small_graph_path, algorithm="gossip",
                schedule=f"weighted:file:{wfile}", steps=3))


def test_weights_files_are_opened_as_edge_lists_are(small_graph_path, tmp_path,
                                                   capsys):
    # a missing weights file is an i/o error also when a compressed file of
    # its name plus .gz lies beside it, and a compressed one is refused as
    # text that cannot be decoded, as for graphs (`pushrank.webgraph`)
    weights = "".join("1.0\n" for _ in range(20)).encode()
    wfile = tmp_path / "w.txt"
    Path(f"{wfile}.gz").write_bytes(gzip.compress(weights))
    argv = ["gossip", "--graph", small_graph_path, "--steps", "3",
            "--schedule", f"weighted:file:{wfile}"]
    assert cli.main(argv) == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err
    for suffix, compress in ((".gz", gzip.compress), (".bz2", bz2.compress)):
        packed = tmp_path / f"w{suffix}"
        packed.write_bytes(compress(weights))
        argv[-1] = f"weighted:file:{packed}"
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "can't decode" in capsys.readouterr().err


def test_sequence_files_are_checked_against_the_drawn_range(tmp_path, capsys):
    # a page outside the graph, or a group outside the partition, is refused
    # when the schedule is built, by line, even if no step would draw it
    graph, part, seq = (tmp_path / name for name in ("g.txt", "p.txt", "s.txt"))
    graph.write_text("0 1\n1 2\n2 3\n3 0\n")
    part.write_text("0 0\n1 0\n2 1\n3 1\n")
    seq.write_text("0\n# two groups\n3,2\n")
    base = ["--graph", str(graph), "--schedule", f"file:{seq}", "--steps", "1"]
    assert cli.main(["multi", *base]) == cli.EXIT_OK
    assert cli.main(["cluster", "--partition", str(part), *base]) == cli.EXIT_CONFIG
    assert "line 3: index 3 outside 0..1" in capsys.readouterr().err
    seq.write_text("0\n7\n")
    assert cli.main(["multi", *base]) == cli.EXIT_CONFIG
    assert "line 2: index 7 outside 0..3" in capsys.readouterr().err


def test_weights_file_length_checked(small_graph_path, tmp_path):
    wfile = tmp_path / "w.txt"
    wfile.write_text("1.0\n1.0\n")
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                           schedule=f"weighted:file:{wfile}", steps=10)
    with pytest.raises(ConfigError, match="entries"):
        run_experiment(cfg)


def test_unknown_weights_spec_rejected(small_graph_path, tmp_path):
    part = tmp_path / "part.txt"
    part.write_text("".join(f"{i} {i % 2}\n" for i in range(20)))
    for algo in ("gossip", "multi", "cluster"):
        cfg = ExperimentConfig(
            graph=small_graph_path, algorithm=algo, schedule="weighted:bogus",
            steps=10, partition=str(part) if algo == "cluster" else None)
        with pytest.raises(ConfigError, match="unknown schedule spec"):
            run_experiment(cfg)


def test_output_is_opened_before_the_run(small_graph_path, tmp_path,
                                        monkeypatch, capsys):
    # an --out that cannot be opened exits 3 before the graph is read (this
    # one would exit 2) or a step runs; a run that fails after the open
    # leaves the file empty
    def refuse(*args, **kwargs):
        raise NumericalFailure("run refused")

    monkeypatch.setattr(engines, "run", refuse)
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("0 x\n")
    unopenable = str(tmp_path / "missing" / "out.csv")
    for argv in (["exact"], ["sync"], ["mc", "--replicas", "2", "--steps", "3"],
                 ["compare", "--runs", "sync,power", "--steps", "3"]):
        assert cli.main([*argv, "--graph", str(garbled),
                         "--out", unopenable]) == cli.EXIT_IO
        assert "i/o error" in capsys.readouterr().err
    out = tmp_path / "out.csv"
    for argv in (["sync"], ["mc", "--replicas", "2", "--steps", "3"]):
        out.write_text("an earlier run\n")
        assert cli.main([*argv, "--graph", small_graph_path,
                         "--out", str(out)]) == cli.EXIT_NUMERICAL
        assert "run refused" in capsys.readouterr().err
        assert out.read_bytes() == b""


def test_cli_rejects_non_finite_weights(small_graph_path, tmp_path, capsys):
    pages = tmp_path / "w.txt"
    pages.write_text("1.0\n" * 19 + "nan\n")
    assert cli.main(["gossip", "--graph", small_graph_path,
                     "--schedule", f"weighted:file:{pages}",
                     "--steps", "10"]) == cli.EXIT_CONFIG
    part = tmp_path / "part.txt"
    part.write_text("".join(f"{i} {i % 2}\n" for i in range(20)))
    groups = tmp_path / "gw.txt"
    groups.write_text("1.0\nnan\n")
    assert cli.main(["cluster", "--graph", small_graph_path,
                     "--partition", str(part), "--schedule",
                     f"weighted:file:{groups}", "--steps", "10"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count("positive and finite") == 2


@pytest.mark.parametrize("bad", ["0", "-1.5", "nan", "inf"])
def test_bad_weight_names_its_line(bad, small_graph_path, tmp_path, capsys):
    # a weight that is not positive and finite is refused by line, before
    # the schedule is built, as any other bad line of the file
    weights = tmp_path / "w.txt"
    weights.write_text("# weights\n" + "1.0\n" * 4 + f"{bad}\n"
                       + "1.0\n" * 15)
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                           schedule=f"weighted:file:{weights}", steps=3)
    with pytest.raises(ParseError, match=f"^line 6: weight {float(bad)!r} "
                                         "is not positive and finite$"):
        run_experiment(cfg)
    assert cli.main(["gossip", "--graph", small_graph_path, "--schedule",
                     f"weighted:file:{weights}", "--steps", "3"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: line 6: ")


def test_cli_rejects_oversized_integers(cycle_path, tmp_path, capsys):
    huge = "99999999999999999999999"
    graph = tmp_path / "huge.txt"
    graph.write_text(f"0 1\n1 {huge}\n")
    part = tmp_path / "part.txt"
    part.write_text(f"0 0\n1 {huge}\n")
    seq = tmp_path / "seq.txt"
    seq.write_text(f"0\n1,{huge}\n")
    assert cli.main(["sync", "--graph", str(graph),
                     "--steps", "1"]) == cli.EXIT_CONFIG
    assert cli.main(["cluster", "--graph", cycle_path, "--partition",
                     str(part), "--steps", "1"]) == cli.EXIT_CONFIG
    assert cli.main(["multi", "--graph", cycle_path, "--schedule",
                     f"file:{seq}", "--steps", "1"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count("line 2: ") == 3


def test_cli_rejects_python_only_integer_spellings(small_graph_path, tmp_path,
                                                  capsys):
    # sequence files take the ASCII integers edge lists take: no digit
    # separators, no non-ASCII digits
    for name, line in (("underscore", "1_0"), ("arabic_indic", "\u0663")):
        seq = tmp_path / f"{name}.txt"
        seq.write_text(f"0\n# a comment\n{line}\n", encoding="utf-8")
        assert cli.main(["multi", "--graph", small_graph_path, "--schedule",
                         f"file:{seq}", "--steps", "2"]) == cli.EXIT_CONFIG
        assert f"line 3: expected comma-separated integers, got {line!r}" in \
            capsys.readouterr().err


def test_cli_rejects_tol_a_file_schedule_cannot_reach(small_graph_path,
                                                       tmp_path, capsys):
    # pages 3 and 7 never push, so their residual keeps the certificate
    # at or above (1-m) 2/20 = 0.085
    seq = tmp_path / "seq.txt"
    named = [i for i in range(20) if i not in (3, 7)]
    seq.write_text(",".join(map(str, named)) + "\n" + "0,1\n" * 30)
    argv = ["multi", "--graph", small_graph_path, "--schedule", f"file:{seq}"]
    assert cli.main(argv + ["--tol", "0.08"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "never updates pages 3, 7" in err and "0.085" in err
    assert cli.main(argv + ["--tol", "0.09"]) == cli.EXIT_OK
    assert cli.main(argv + ["--steps", "5"]) == cli.EXIT_OK
    # cluster runs name the groups: group 2 holds pages 2, 5, ..., 17
    part = tmp_path / "part.txt"
    part.write_text("".join(f"{i} {i % 3}\n" for i in range(20)))
    groups = tmp_path / "groups.txt"
    groups.write_text("0\n1\n" * 10)
    argv = ["cluster", "--graph", small_graph_path, "--partition", str(part),
            "--schedule", f"file:{groups}"]
    assert cli.main(argv + ["--tol", "0.25"]) == cli.EXIT_CONFIG
    assert "never updates group 2," in capsys.readouterr().err
    assert cli.main(argv + ["--tol", "0.3"]) == cli.EXIT_OK


def test_cli_rejects_page_index_typo(tmp_path, capsys):
    # one mistyped index must not size the graph: n = 1e11 pages would
    # need 745 GiB for indptr alone
    graph = tmp_path / "typo.txt"
    graph.write_text("1 99999999999\n")
    assert cli.main(["sync", "--graph", str(graph),
                     "--steps", "1"]) == cli.EXIT_CONFIG
    assert "line 1: " in capsys.readouterr().err


def test_cli_rejects_dangling_patch_too_large(tmp_path, capsys):
    # one index typo leaves 99,997 dangling pages of 100,000: patching
    # them would take 74.5 GiB of links
    graph = tmp_path / "typo.txt"
    graph.write_text("0 1\n1 2\n2 0\n1 99999\n")
    assert cli.main(["sync", "--graph", str(graph),
                     "--steps", "1"]) == cli.EXIT_CONFIG
    assert "99997 dangling pages of 100000" in capsys.readouterr().err


def ring_above_the_cap(tmp_path):
    """(graph, groups): a ring of 1,000 pages more than the reference cap,
    page j linking to j+1 and j+37, in groups of 100 pages."""
    n, size = solvers.REFERENCE_CAP + 1000, 100
    pages = np.arange(n)
    graph, groups = tmp_path / "ring.txt", tmp_path / "ring.groups"
    src = pages.repeat(2)
    np.savetxt(graph, np.column_stack((src, (src + np.tile([1, 37], n)) % n)),
               fmt="%d")
    np.savetxt(groups, np.column_stack((pages, pages // size)), fmt="%d")
    return graph, groups


def cli_in_fresh_interpreter(argv, tmp_path, setup=""):
    """Run the CLI on `argv` in a fresh interpreter, after the statements
    `setup`: the finished process, whose last stdout line lists the scipy
    modules it loaded. Graph and group files are read from tests/data, the
    ring ones from a ring above the reference cap written to `tmp_path`."""
    if "ring.txt" in argv:
        ring_above_the_cap(tmp_path)
    root = Path(pushrank.__file__).resolve().parent.parent
    data = Path(__file__).resolve().parent / "data"
    argv = [str((tmp_path if word.startswith("ring") else data) / word)
            if word.endswith((".txt", ".groups")) else word
            for word in argv.split()] + ["--out", str(tmp_path / "run.csv")]
    code = (f"import sys; sys.path.insert(0, {str(root)!r}); "
            "import pushrank.cli, pushrank.solvers; "
            f"{setup}code = pushrank.cli.main({argv!r}); "
            "print(sorted(k for k in sys.modules if k.startswith('scipy'))); "
            "sys.exit(code)")
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("argv, summary", [
    pytest.param("exact --graph web60.txt", "exact: steps=0 ", id="exact"),
    pytest.param("power --graph web60.txt --tol 1e-9", "power: steps=30 ",
                 id="power"),
    pytest.param("mc --graph web60.txt --replicas 2 --steps 3",
                 "mc[gossipx2]: steps=3 ", id="mc"),
    pytest.param("compare --graph web60.txt --runs power,sync --steps 3", "",
                 id="compare"),
    pytest.param("cluster --graph community700.txt --partition "
                 "community700.groups --steps 3", "cluster: steps=3 ",
                 id="cluster"),
    pytest.param("sync --graph ring.txt --tol 1e-6",
                 "sync: steps=85 updates=510000 ", id="sync_above_the_cap"),
    pytest.param("multi --graph ring.txt --schedule subset:0.5 --seed 3 "
                 "--steps 20", "multi: steps=20 ", id="subset_above_the_cap"),
    pytest.param("cluster --graph ring.txt --partition ring.groups "
                 "--steps 200", "cluster: steps=200 updates=20000 ",
                 id="cluster_above_the_cap"),
])
def test_no_command_loads_any_scipy_module(argv, summary, tmp_path):
    # the reference oracle, the power method and the push of every page
    # take the graph's own product, group factors sum their series with
    # numpy, and partial sets gather their out-links: scipy is a test
    # dependency only. The ring runs lie above the reference cap, where no
    # run builds the oracle; the others build it
    done = cli_in_fresh_interpreter(argv, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(summary)
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", ["gossip --graph web60.txt --steps 50"])
def test_no_command_imports_scipy_linalg(argv, tmp_path):
    # the gossip case of the test above: its run builds the reference
    # oracle, and loads no scipy module at all
    done = cli_in_fresh_interpreter(argv, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("gossip: steps=50 ")
    assert done.stdout.splitlines()[-1] == "[]"


def test_gossip_without_the_dense_oracle_never_imports_scipy(tmp_path):
    # with the reference cap at 0 the gossip run builds no oracle either
    done = cli_in_fresh_interpreter("gossip --graph web60.txt --steps 50",
                                    tmp_path,
                                    setup="pushrank.solvers.REFERENCE_CAP = 0; ")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("gossip: steps=50 ")
    assert done.stdout.splitlines()[-1] == "[]"


def test_reference_outputs_do_not_depend_on_the_blas_thread_count(tmp_path,
                                                                   rng):
    # x* comes from sparse products alone, so exact and mc write the same
    # bytes whatever number of threads OpenBLAS runs
    root = Path(pushrank.__file__).resolve().parent.parent
    graph = write_edge_list(random_graph(rng, 100), tmp_path / "g100.txt")
    outputs = []
    for threads in ("1", "2"):
        exact, mc = tmp_path / f"exact{threads}.csv", tmp_path / f"mc{threads}.csv"
        code = (f"import sys; sys.path.insert(0, {str(root)!r}); "
                "import pushrank.cli as cli; "
                f"sys.exit(cli.main(['exact', '--graph', {graph!r}, "
                f"'--out', {str(exact)!r}]) or cli.main(['mc', '--graph', "
                f"{graph!r}, '--replicas', '20', '--steps', '50', "
                f"'--out', {str(mc)!r}]))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert done.returncode == 0, done.stderr
        outputs.append((exact.read_bytes(), mc.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command, column, rows, missing", [
    ("mc --algorithm cluster --partition PART --replicas 2 --steps 3",
     "err_mean", 4, False),
    ("exact", "x", 20, False),
    ("gossip --steps 3", "err_l1", 2, True),
])
def test_mc_and_exact_build_the_reference_above_the_cap(
        command, column, rows, missing, small_graph_path, tmp_path,
        monkeypatch):
    # the reference's count of sparse products does not grow with n: mc
    # and exact build it above the cap, a single run writes NaN error
    monkeypatch.setattr(solvers, "REFERENCE_CAP", 10)
    part = tmp_path / "part.txt"
    part.write_text("".join(f"{i} {i % 3}\n" for i in range(20)))
    out = tmp_path / "out.csv"
    argv = command.replace("PART", str(part)).split()
    assert cli.main(argv + ["--graph", small_graph_path,
                            "--out", str(out)]) == cli.EXIT_OK
    header, *lines = out.read_text().splitlines()
    at = header.split(",").index(column)
    values = np.array([float(line.split(",")[at]) for line in lines])
    assert values.size == rows
    assert np.isnan(values).all() if missing else not np.isnan(values).any()


def test_weights_need_weighted_schedule(small_graph_path):
    # the weights are a weighted spec's argument: there is no --weights flag
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["gossip", "--graph", small_graph_path, "--steps", "3",
                  "--weights", "uniform"])
    assert exit_info.value.code == cli.EXIT_CONFIG
    # so each compare run names its own weights, or none
    assert cli.main(["compare", "--graph", small_graph_path, "--steps", "3",
                     "--runs", "sync,gossip=uniform,"
                     "gossip=weighted:indegree_plus_one"]) == cli.EXIT_OK


def test_mc_defaults_to_uniform_schedule(small_graph_path, tmp_path):
    part = tmp_path / "part.txt"
    part.write_text("".join(f"{i} {i % 3}\n" for i in range(20)))
    for algo in ("gossip", "multi", "cluster"):
        argv = ["mc", "--graph", small_graph_path, "--algorithm", algo,
                "--replicas", "3", "--steps", "20", "--seed", "5"]
        if algo == "cluster":
            argv += ["--partition", str(part)]
        default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
        assert cli.main(argv + ["--out", str(default)]) == cli.EXIT_OK
        assert cli.main(argv + ["--schedule", "uniform",
                                "--out", str(explicit)]) == cli.EXIT_OK
        assert default.read_bytes() == explicit.read_bytes()


def test_cli_rejects_bad_tol_and_steps(cycle_path):
    # --steps 5 bounds each run, so a missing check fails instead of hanging
    for bad in ("-1", "nan", "0", "inf"):
        assert cli.main(["sync", "--graph", cycle_path, "--steps", "5",
                         "--tol", bad]) == cli.EXIT_CONFIG
    assert cli.main(["sync", "--graph", cycle_path,
                     "--steps", "-3"]) == cli.EXIT_CONFIG


def test_exact_writes_rank_vector(cycle_path, small_graph_path, tmp_path):
    out = tmp_path / "ranks.csv"
    for path in (cycle_path, small_graph_path):
        cfg = ExperimentConfig(graph=path, algorithm="exact", out=str(out))
        run_experiment(cfg)
        x_star = DenseOracle(patch_dangling(load_edge_list(path))[0],
                             cfg.m).x_star
        assert_csv_round_trips(out, "page,x", [np.arange(x_star.size), x_star])
        if path == cycle_path:
            np.testing.assert_allclose(x_star, [0.5, 0.5], atol=1e-12)


def test_include_x_appends_state_columns(cycle_path, small_graph_path,
                                         tmp_path):
    out = tmp_path / "t.csv"
    for path, kwargs in ((small_graph_path,
                          dict(algorithm="gossip", seed=3, steps=50)),
                         (cycle_path, dict(algorithm="power", tol=1e-12))):
        for include_x in (False, True):
            trace = run_experiment(ExperimentConfig(
                graph=path, **kwargs, out=str(out), include_x=include_x))
            header = CSV_HEADER
            columns = [trace.steps, trace.updates]
            columns += [trace.column(name)[:, 0]
                        for name in ("err_l1", "cert", "defect")]
            if include_x:
                x = np.array(trace.x_rows)
                header += "".join(f",x{i}" for i in range(x.shape[1]))
                columns += list(x.T)
            assert_csv_round_trips(out, header, columns)
    # the last run written is the cycle's power run with its state columns
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER + ",x0,x1"
    final = lines[-1].split(",")
    np.testing.assert_allclose([float(final[-2]), float(final[-1])],
                               [0.5, 0.5], atol=1e-10)


def test_monte_carlo_single_replica_degenerates(small_graph_path):
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                           schedule="uniform", seed=17, steps=100, replicas=1)
    mean = monte_carlo(cfg)
    assert np.all(mean.err_stderr == 0.0)
    assert mean.replicas == 1
    assert len(mean.steps) == 101


@pytest.mark.parametrize("cadence", [None, 7])
def test_mc_writes_its_step_grid_above_1000_pages(cadence, tmp_path):
    # mc's curve is its output: a row for every step on a graph of any
    # size, or for every cadence-th step and the last when asked
    graph, out = tmp_path / "cycle.txt", tmp_path / "mc.csv"
    graph.write_text("".join(f"{i} {(i + 1) % 1001}\n" for i in range(1001)))
    argv = ["mc", "--graph", str(graph), "--replicas", "10", "--steps", "50",
            "--out", str(out)]
    if cadence:
        argv += ["--cadence", str(cadence)]
    assert cli.main(argv) == cli.EXIT_OK
    header, *lines = out.read_text().splitlines()
    want = list(range(51)) if cadence is None else list(range(0, 50, 7)) + [50]
    assert header == harness.MeanTrace.HEADER
    assert [int(line.split(",")[0]) for line in lines] == want


def test_monte_carlo_requires_random_schedule(small_graph_path):
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="multi",
                           schedule="roundrobin", steps=50, replicas=4)
    with pytest.raises(ConfigError, match="randomized"):
        monte_carlo(cfg)
    cfg = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                           schedule="uniform", replicas=4)
    with pytest.raises(ConfigError, match="steps"):
        monte_carlo(cfg)


def test_monte_carlo_uniform_vs_weighted_reported(small_graph_path, tmp_path):
    # both averaged curves are produced; their ordering is reported, not asserted
    curves = {}
    for name, sched in (("uniform", "uniform"),
                        ("weighted", "weighted:indegree_plus_one")):
        cfg = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                               schedule=sched, seed=1,
                               steps=150, replicas=60,
                               out=str(tmp_path / f"{name}.csv"))
        curves[name] = monte_carlo(cfg)
    for name, mean in curves.items():
        assert np.all(np.isfinite(mean.err_mean))
        assert mean.err_mean[-1] < mean.err_mean[0]
        assert_csv_round_trips(tmp_path / f"{name}.csv",
                               "step,updates,err_mean,err_stderr",
                               [mean.steps, mean.updates, mean.err_mean,
                                mean.err_stderr])


MC_RUNS = {
    "gossip-uniform": ("gossip", "uniform"),
    "gossip-weighted": ("gossip", "weighted:indegree_plus_one"),
    "multi-subset": ("multi", "subset:0.3"),
    "cluster-uniform": ("cluster", "uniform"),
}


@pytest.mark.parametrize("replicas", [1, 7])
@pytest.mark.parametrize("name", sorted(MC_RUNS))
def test_stacked_monte_carlo_equals_its_replicas_one_by_one(
        name, replicas, small_graph_path, tmp_path, rng):
    algorithm, spec = MC_RUNS[name]
    graph, _ = patch_dangling(load_edge_list(small_graph_path))
    partition = factors = None
    n = graph.n
    if algorithm == "cluster":
        partition = write_partition_file(random_partition(rng, graph.n, 5),
                                         tmp_path / "groups.txt")
        factors = GroupFactors(graph, 0.15, load_partition(partition, graph))
        n = factors.num_groups
    w = indegree_plus_one_weights(graph) if spec.startswith("weighted") else None
    want = monte_carlo_one_by_one(
        graph, 0.15, spec, replicas, seed=13, weights=w, factors=factors,
        steps=40, oracle=DenseOracle(graph, 0.15))
    got = monte_carlo(ExperimentConfig(
        graph=small_graph_path, algorithm=algorithm, schedule=spec,
        partition=partition, seed=13, steps=40,
        replicas=replicas))
    for have, expected in zip((got.steps, got.updates, got.err_mean,
                               got.err_stderr), want):
        assert np.array_equal(have, expected)


def test_monte_carlo_holds_no_record_per_replica():
    # each record is reduced to its mean and standard error as it is
    # taken: twice the records cost no more than their four columns, where
    # 200 replicas' err, cert and defect are 4.8 KB a record. The runs are
    # long enough that the schedule's block of draws, which grows to 327
    # steps here (`pushrank.scheduling`), has reached its size in both
    graph = str(Path(__file__).resolve().parent / "data" / "web60.txt")
    peaks = []
    for steps in (1000, 2000):
        config = ExperimentConfig(graph=graph, algorithm="gossip", seed=1,
                                  steps=steps, replicas=200)
        tracemalloc.start()
        try:
            mean = monte_carlo(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(mean.steps) == steps + 1
    assert peaks[1] - peaks[0] <= 2 ** 20


def test_monte_carlo_runs_its_replicas_in_one_stacked_run(small_graph_path,
                                                          monkeypatch):
    calls = Counter()
    for owner, name in ((engines, "run"),
                        (DenseOracle, "conservation_defect"),
                        (DenseOracle, "error_l1")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    monte_carlo(ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                                 seed=13, steps=40, replicas=7))
    # one run, and one oracle call per record (41) for all seven replicas
    assert calls == {"run": 1, "conservation_defect": 41, "error_l1": 41}


def spike_pushes(monkeypatch, replica, at, size):
    """Make each push by a run add `size` to x at the first page of
    `replica` (0 on a single run) after step `at`, and take it back after
    the next. The runs it spikes record every step (`cadence` 1, mc's
    default), so each push is one step."""
    push = engines._push_segment

    def spiking(state, graph, m, *args):
        taken = push(state, graph, m, *args)
        if state.step in (at, at + 1):
            state.x[replica * graph.n] += size if state.step == at else -size
        return taken
    monkeypatch.setattr(engines, "_push_segment", spiking)


@pytest.mark.parametrize("replicas", [None, 7])
def test_defect_above_the_abort_level_stops_the_run_in_any_replica(
        replicas, small_graph_path, monkeypatch):
    graph, _ = patch_dangling(load_edge_list(small_graph_path))
    oracle = DenseOracle(graph, 0.15)
    # each replica's defects, run one by one: rounding-level everywhere
    if replicas:
        *_, defects = monte_carlo_one_by_one(graph, 0.15, "uniform", replicas,
                                             seed=13, steps=40, oracle=oracle)
    else:
        sched = Schedule.from_spec("uniform", graph.n, seed=13)
        trace = run(graph, 0.15, sched, steps=40, oracle=oracle,
                    cadence=1)[1]
        defects = trace.column("defect")
    middle, at, spike = (replicas or 1) // 2, 20, 1e-3
    # the spiked replica's largest defect is about `spike`; the level lies
    # between it and every replica's largest defect without the spike
    level = math.sqrt(spike * defects.max())
    assert defects.max() < level < spike
    monkeypatch.setattr(engines, "DEFECT_ABORT", level)
    config = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                              schedule="uniform", seed=13, steps=40,
                              replicas=replicas or 1, cadence=1)
    execute = monte_carlo if replicas else run_experiment
    execute(config)                      # no defect reaches the level
    spike_pushes(monkeypatch, middle, at, spike)
    where = f"at step {at} of replica {middle}" if replicas else f"at step {at}"
    with pytest.raises(NumericalFailure, match=f"{where} exceeds"):
        execute(config)


def test_a_defect_spike_ends_the_run_at_its_record(small_graph_path,
                                                   monkeypatch):
    spike_pushes(monkeypatch, 0, 20, 1e-3)
    spiking, calls = engines._push_segment, []

    def counting(*args):
        calls.append(args)
        return spiking(*args)
    monkeypatch.setattr(engines, "_push_segment", counting)
    config = ExperimentConfig(graph=small_graph_path, algorithm="gossip",
                              seed=13, steps=1000, cadence=1)
    with pytest.raises(NumericalFailure, match="at step 20 exceeds 1e-06"):
        run_experiment(config)
    assert len(calls) == 20


REFUSED = {
    "mc-tol": ("mc --steps 5 --replicas 2", "--tol 1e-3"),
    "mc-include-x": ("mc --steps 5 --replicas 2", "--include-x"),
    "compare-include-x": ("compare --runs sync,gossip=uniform --tol 1e-3",
                          "--include-x"),
    "exact-tol": ("exact", "--tol 1e-3"),
    "exact-steps": ("exact", "--steps 5"),
    "exact-cadence": ("exact", "--cadence 7"),
    "exact-include-x": ("exact", "--include-x"),
    "exact-seed": ("exact", "--seed 99"),
    "sync-seed": ("sync --steps 5", "--seed 99"),
    "power-seed": ("power --steps 5", "--seed 9"),
    "cluster-default-seed": ("cluster --partition PART", "--seed 99"),
    "cluster-roundrobin-seed": ("cluster --partition PART "
                                "--schedule roundrobin", "--seed 3"),
    "cluster-file-seed": ("cluster --partition PART --schedule file:GROUPS",
                          "--seed 3"),
    "multi-roundrobin-seed": ("multi --schedule roundrobin --steps 5",
                              "--seed 4"),
    "multi-default-seed": ("multi --steps 5", "--seed 4"),
    "multi-file-seed": ("multi --schedule file:PAGES", "--seed 3"),
    "compare-partition": ("compare --runs sync,power", "--partition PART"),
    "compare-seed": ("compare --runs sync,power", "--seed 5"),
    "compare-deterministic-seed": ("compare --runs sync,cluster=roundrobin "
                                   "--partition PART", "--seed 5"),
    # a flag given at its default value is still given
    "sync-default-seed": ("sync --steps 5", "--seed 0"),
    "exact-default-seed": ("exact", "--seed 0"),
    "cluster-roundrobin-default-seed": ("cluster --partition PART "
                                        "--schedule roundrobin", "--seed 0"),
    "compare-default-seed": ("compare --runs sync,power --steps 5",
                             "--seed 0"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_cli_refuses_flags_the_command_ignores(case, small_graph_path,
                                               tmp_path, monkeypatch, capsys):
    # the cases name a partition and two sequence files in the working dir
    monkeypatch.chdir(tmp_path)
    (tmp_path / "PART").write_text("".join(f"{i} {i % 2}\n" for i in range(20)))
    (tmp_path / "GROUPS").write_text("0\n1\n")
    (tmp_path / "PAGES").write_text("0,1,2\n3\n")
    argv, flag = (words.split() for words in REFUSED[case])
    argv = argv + ["--graph", small_graph_path]
    assert cli.main(argv + flag) == cli.EXIT_CONFIG
    assert f"error: {flag[0]} does not apply" in capsys.readouterr().err
    assert cli.main(argv) == cli.EXIT_OK


def test_compare_loads_its_inputs_once(monkeypatch, tmp_path):
    data = Path(__file__).resolve().parent / "data"
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((harness, "load_edge_list"), (harness, "load_partition"),
                         (harness, "GroupFactors"),
                         (harness.solvers, "DenseOracle")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    out = tmp_path / "cmp.csv"
    for runs in ("gossip=uniform,cluster=roundrobin",
                 "cluster=roundrobin,gossip=uniform,sync"):
        calls.clear()
        # --seed goes to the gossip run only: cluster=roundrobin draws nothing
        assert cli.main([
            "compare", "--graph", str(data / "community700.txt"),
            "--partition", str(data / "community700.groups"), "--runs", runs,
            "--steps", "40", "--seed", "5", "--out", str(out)]) == cli.EXIT_OK
        assert calls == {"load_edge_list": 1, "DenseOracle": 1,
                         "load_partition": 1, "GroupFactors": 1}
    # each column is the error of its run made alone: no run sees another's
    # groups, and only the gossip run reads the seed
    lines = out.read_text().splitlines()
    grid = [int(line.split(",")[0]) for line in lines[1:]]
    for col, (algo, sched) in enumerate((("cluster", "roundrobin"),
                                         ("gossip", "uniform"),
                                         ("sync", None)), start=1):
        trace = run_experiment(ExperimentConfig(
            graph=str(data / "community700.txt"), algorithm=algo,
            schedule=sched, steps=40, seed=5 if algo == "gossip" else None,
            partition=str(data / "community700.groups")
            if algo == "cluster" else None))
        for upd, err in zip(trace.updates, trace.err_l1):
            assert float(lines[1 + grid.index(upd)].split(",")[col]) == err


def test_compare_power_and_sync_share_cost_axis(small_graph_path, tmp_path):
    out = tmp_path / "cmp.csv"
    base = ExperimentConfig(graph=small_graph_path, algorithm="compare",
                            steps=30, out=str(out))
    header, rows = compare(base, ["power", "sync"])
    assert header == ["updates", "err_power", "err_sync"]
    grid = [r[0] for r in rows]
    assert grid == [20 * k for k in range(31)]
    assert_csv_round_trips(out, "updates,err_power,err_sync",
                           [list(col) for col in zip(*rows)])


def test_compare_single_run_degenerate(small_graph_path):
    header, rows = compare(ExperimentConfig(
        graph=small_graph_path, algorithm="compare", steps=10), ["sync"])
    assert header == ["updates", "err_sync"]
    assert len(rows) == 11


def test_compare_runs_share_the_dense_cap(cycle_path, monkeypatch):
    # all runs share one runtime, so no run order can give one run the
    # reference: above the cap both columns lack it whichever comes first
    monkeypatch.setattr(solvers, "REFERENCE_CAP", 1)
    base = ExperimentConfig(graph=cycle_path, algorithm="compare", steps=3)
    for runs in (["sync", "power"], ["power", "sync"]):
        _, rows = compare(base, runs)
        assert len(rows) == 4
        assert all(np.isnan(err) for row in rows for err in row[1:])


def test_compare_duplicate_labels_disambiguated(small_graph_path):
    base = ExperimentConfig(graph=small_graph_path, algorithm="compare",
                            seed=1, steps=50)
    header, _ = compare(base, ["gossip=uniform",
                               "gossip=weighted:indegree_plus_one"])
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
                               partition=ppath, schedule="roundrobin",
                               tol=1e-6, steps=200_000)
    t_gossip = run_experiment(gossip)
    t_cluster = run_experiment(cluster)
    assert t_cluster.final_updates < t_gossip.final_updates
