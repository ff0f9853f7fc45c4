"""Tests of the benchmark itself: every output check bites, every workload runs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import csv
import os
import shutil
import sys

import pytest

import checks
import harness
import run

sys.path.insert(0, run.SRC)
from pbtsim.workload import build_graph, parse_snapshot  # noqa: E402


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    run.WORK = str(root)
    return root


def tiny_output(work, workload, seed=3):
    """Run one tiny iteration and return (its output dir, inputs, plan)."""
    result, report = run.bench(workload, seed, 0, False, "tiny")
    assert result["correct"] and result["failed"] == 0, report
    base = os.path.join(run.WORK, f"tiny-{workload}-seed{seed}")
    inp, _ = run.make_inputs(workload, seed, "tiny", str(work))
    return os.path.join(base, "out-first"), inp, run.plan_of(workload, "tiny")


def doctored(src_dir, dst_dir, kind, edit):
    """Copy an output directory, rewriting the rows of one CSV kind with `edit`."""
    shutil.copytree(src_dir, dst_dir)
    (name,) = [n for n in os.listdir(dst_dir) if n.endswith(f"_run0_{kind}.csv")]
    path = os.path.join(dst_dir, name)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return dst_dir


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_workload_runs_at_tiny_size(work, workload):
    for trace in (False, True):
        result, report = run.bench(workload, 1, 0, trace, "tiny")
        assert result["correct"], report
        assert result["failed"] == 0 and result["attempted"] > 0
        metrics = result["metrics"]
        if trace:
            assert "trace.overhead_pct" in metrics and "routing.next_hop_calls" in metrics
        else:
            assert set(metrics) == set(run.END_TO_END_UNITS)
            assert all(m["value"] > 0 for m in metrics.values())


def test_untouched_output_passes(work):
    out, inp, plan = tiny_output(work, "sm-static-desk")
    verdict = checks.check_output(out, inp, plan, 3)
    assert not verdict.failed and not verdict.run


def test_infeasible_success_is_caught(work, tmp_path):
    out, inp, plan = tiny_output(work, "sm-static-desk")
    src, dst = inp.transactions[0][2:]
    huge = 10**18  # more than all credit in the graph
    inp.transactions.append((10**15, huge, src, dst))
    plan.flow_sample = 10**6

    def edit(rows):
        rows[0].update(time="1000000000", success="1", attempts="1", mean_path_len="99.0")

    verdict = checks.check_output(doctored(out, tmp_path / "o", "transactions", edit), inp, plan, 3)
    assert "infeasible" in verdict.failed.get(0, "")


def test_path_shorter_than_bfs_is_caught(work, tmp_path):
    out, inp, plan = tiny_output(work, "sm-static-desk")
    ends = {t: (src, dst) for t, _, src, dst in inp.transactions}
    flagged = []

    def edit(rows):
        # a one-hop path between endpoints that share no credit line
        row = next(r for r in rows if r["success"] == "1"
                   and ends[checks.micro(r["time"])] not in inp.lines)
        row["mean_path_len"] = "1.000000"
        flagged.append(int(row["index"]))

    verdict = checks.check_output(doctored(out, tmp_path / "o", "transactions", edit), inp, plan, 3)
    assert "BFS" in verdict.failed.get(flagged[0], "")


def test_attempts_and_missing_records_are_caught(work, tmp_path):
    out, inp, plan = tiny_output(work, "sm-churn-dynamic")

    def edit(rows):
        rows[0]["attempts"] = str(plan.attempts + 1)
        del rows[-1]

    verdict = checks.check_output(doctored(out, tmp_path / "o", "transactions", edit), inp, plan, 3)
    assert verdict.failed and verdict.run


def test_wrong_periodic_count_is_caught(work, tmp_path):
    out, inp, plan = tiny_output(work, "sw-static-desk")

    def edit(rows):
        rows[0]["stab_messages"] = str(int(rows[0]["stab_messages"]) + 1)

    verdict = checks.check_output(doctored(out, tmp_path / "o", "epochs", edit), inp, plan, 3)
    assert any("periodic" in r for r in verdict.run)


def test_wrong_epoch_totals_are_caught(work, tmp_path):
    out, inp, plan = tiny_output(work, "sm-static-desk")

    def edit(rows):
        rows[0]["successes"] = str(int(rows[0]["successes"]) - 1)

    verdict = checks.check_output(doctored(out, tmp_path / "o", "epochs", edit), inp, plan, 3)
    assert any("success totals" in r for r in verdict.run)


def test_moved_weight_or_reservation_is_caught(work):
    _, inp, _ = tiny_output(work, "sm-static-desk")
    with open(os.path.join(run.WORK, "tiny-sm-static-desk-seed3", "snapshot.csv"),
              encoding="utf-8") as fh:
        g = build_graph(parse_snapshot(fh.read()))
    expected = checks.expected_graph_digest(inp)
    assert harness.graph_digest(g) == expected
    (u, v), w = next(iter(inp.lines.items()))
    g.set_link(u, v, w + 1)
    assert harness.graph_digest(g) != expected
    g.set_link(u, v, w)
    assert g.reserve(u, v, 1)
    assert harness.graph_digest(g) != expected


def test_missing_source_tree_exits_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "sm-static-desk", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_harness(work):
    import json

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    result, _ = run.bench("sm-churn-dynamic", 1, 0, True, "tiny")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_no_completed_iteration_is_not_correct(work, monkeypatch):
    def crashed(*_):
        it = {"rc": None, "error": "Traceback: boom", "wall_s": 0.1, "engine_calls": 0}
        return {"iterations": [it], "peak_rss_mb": 30.0}

    monkeypatch.setattr(run, "run_child", crashed)
    result, report = run.bench("sm-churn-dynamic", 1, 0, False, "tiny")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any("no iteration completed" in line for line in report)
