import gc
import hashlib
import os
import resource
import subprocess
import sys

import pytest

import pbtsim.cli as cli
import pbtsim.engine as engine
from pbtsim.baselines import grid_policies
from pbtsim.cli import main
from pbtsim.embedding import build_embeddings
from pbtsim.graph import CreditGraph
from pbtsim.workload import build_graph, parse_snapshot


@pytest.fixture
def workload(tmp_path):
    snap = tmp_path / "snapshot.csv"
    txs = tmp_path / "transactions.csv"
    code = main([
        "generate", "--nodes", "80", "--tx-count", "150", "--seed", "3",
        "--snapshot-out", str(snap), "--transactions-out", str(txs),
    ])
    assert code == 0
    return snap, txs


def read_all(root):
    out = {}
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


def run_args(workload, out_dir, policy="GE-RAND-OND", extra=()):
    snap, txs = workload
    return [
        "run", "--mode", "static", "--policy", policy,
        "--snapshot", str(snap), "--transactions", str(txs),
        "--out", str(out_dir), "--runs", "2", "--seed", "5",
        "--epoch", "50", *extra,
    ]


def test_run_writes_expected_files(workload, tmp_path):
    out = tmp_path / "out"
    assert main(run_args(workload, out)) == 0
    names = sorted(os.listdir(out))
    assert "summary.csv" in names
    assert "ge_rand_ond_run0_transactions.csv" in names
    assert "ge_rand_ond_run1_epochs.csv" in names
    summary = (out / "summary.csv").read_text()
    assert summary.startswith("# fingerprint=")
    header = [l for l in summary.splitlines() if l.startswith("policy,")][0]
    assert header.startswith(
        "policy,success_ratio,delay_hops,tx_messages,path_len,stab_messages"
    )


def test_run_byte_identical_reruns(workload, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(run_args(workload, out1)) == 0
    assert main(run_args(workload, out2)) == 0
    assert read_all(out1) == read_all(out2)


def test_run_unknown_policy_exits_2(workload, tmp_path):
    assert main(run_args(workload, tmp_path / "x", policy="NOPE")) == 2


def test_run_missing_file_exits_2(tmp_path):
    code = main([
        "run", "--policy", "FF", "--snapshot", str(tmp_path / "none.csv"),
        "--transactions", str(tmp_path / "none2.csv"),
    ])
    assert code == 2
    assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 2


def test_run_config_file_with_flag_override(workload, tmp_path):
    snap, txs = workload
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"mode=static\npolicy=GE-RAND-OND\nsnapshot={snap}\n"
        f"transactions={txs}\nruns=1\nseed=5\nepoch=50\n"
    )
    out = tmp_path / "cfg_out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--policy", "TO-SM"]) == 0
    assert any(n.startswith("to_rand_ond") for n in os.listdir(out))


def test_run_bad_config_line_exits_2(workload, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense-line\n")
    assert main(["run", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("key", ["attempts", "epoch", "runs", "seed", "sample"])
def test_run_non_integer_config_value_exits_2(workload, tmp_path, capsys, key):
    snap, txs = workload
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"policy=GE-RAND-OND\nsnapshot={snap}\ntransactions={txs}\n{key}=abc\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert f"{key} must be an integer, got 'abc'" in capsys.readouterr().err


def test_run_invalid_utf8_exits_2_with_line(workload, tmp_path, capsys):
    snap, _ = workload
    bad = tmp_path / "bad_transactions.csv"
    bad.write_bytes(b"time,value,src,dst\n0,1,0,1\n\xff\xfe1,1,1,0\n")
    assert main(run_args((snap, bad), tmp_path / "x")) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["1,²,5", "1,2,²", "1,٢,5"])
def test_run_non_ascii_digit_exits_2_with_line(workload, tmp_path, capsys, row):
    _, txs = workload
    snap = tmp_path / "snapshot.csv"
    snap.write_text(f"u,v,weight\n0,1,5\n{row}\n", encoding="utf-8")
    assert main(run_args((snap, txs), tmp_path / "x")) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ("--seed", "٢"), ("--trees", "٢"), ("--trees", "٢..3"), ("--attempts", "٣"),
    ("--seed", "-4"),
])
def test_run_integer_flag_outside_ascii_digits_exits_2(workload, tmp_path, capsys, extra):
    assert main(run_args(workload, tmp_path / "x", extra=extra)) == 2
    assert f"must be an integer, got '{extra[1].partition('..')[0]}'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_run_config_value_outside_ascii_digits_exits_2(workload, tmp_path, capsys):
    snap, txs = workload
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"policy=GE-RAND-OND\nsnapshot={snap}\ntransactions={txs}\nattempts=٣\n",
                   encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "attempts must be an integer, got '٣'" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_run_sample_from_empty_pool_exits_2(workload, tmp_path, capsys, mode):
    snap, _ = workload
    txs = tmp_path / "empty.csv"
    txs.write_text("time,value,src,dst\n")
    args = run_args((snap, txs), tmp_path / "x", extra=("--sample", "5"))
    args[args.index("static")] = mode
    assert main(args) == 2
    assert "empty transaction pool" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "preprocess", "generate", "compare"])
def test_unwritable_output_exits_2(workload, tmp_path, capsys, command):
    snap, txs = workload
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    target = str(blocker / "x")  # below a regular file, so it cannot be created
    if command == "run":
        args = run_args(workload, target)
    elif command == "preprocess":
        args = ["preprocess", "--snapshot", str(snap), "--transactions", str(txs),
                "--out-dir", target]
    elif command == "generate":
        target = str(tmp_path / "missing" / "s.csv")
        args = ["generate", "--nodes", "10", "--snapshot-out", target,
                "--transactions-out", str(tmp_path / "t.csv")]
    else:
        out = tmp_path / "ok"
        assert main(run_args(workload, out)) == 0
        args = ["compare", str(out / "summary.csv"), str(out / "summary.csv"), "--out", target]
    capsys.readouterr()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and target in err


def test_failed_write_leaves_no_temporary_file(tmp_path, capsys):
    target = tmp_path / "d1"
    target.mkdir()  # the final rename onto a directory fails
    args = ["generate", "--nodes", "10", "--snapshot-out", str(target),
            "--transactions-out", str(tmp_path / "t.csv")]
    assert main(args) == 2
    assert "cannot write" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["d1"]


@pytest.mark.parametrize("extra", [("--epoch", "0"), ("--attempts", "0"), ("--tl", "-3")])
def test_run_bad_parameter_exits_2_before_creating_out(workload, tmp_path, capsys, extra):
    assert main(run_args(workload, tmp_path / "x", extra=extra)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x").exists()


@pytest.fixture
def small_workload(tmp_path):
    snap, txs = tmp_path / "small_s.csv", tmp_path / "small_t.csv"
    assert main(["generate", "--nodes", "40", "--tx-count", "20", "--seed", "3",
                 "--snapshot-out", str(snap), "--transactions-out", str(txs)]) == 0
    return snap, txs


@pytest.mark.parametrize("trees,first_bad", [("99", 99), ("2..99", 41)])
def test_run_more_trees_than_nodes_exits_2_before_creating_out(small_workload, tmp_path,
                                                                capsys, trees, first_bad):
    args = run_args(small_workload, tmp_path / "x", extra=("--trees", trees))
    assert main(args) == 2
    assert f"cannot select {first_bad} landmarks from 40 nodes" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    # FF selects no landmarks, so it runs with any single count; a sweep is
    # bounded for every policy
    args = run_args(small_workload, tmp_path / "ff", policy="FF", extra=("--trees", trees))
    assert main(args) == (0 if trees == "99" else 2)
    assert (tmp_path / "ff").exists() == (trees == "99")


def test_huge_ff_sweep_exits_2_before_creating_out(small_workload, tmp_path):
    """An FF sweep too long to list exits 2, without a traceback, before
    `--out` exists. The child's address space is capped, so a sweep that
    gets listed fails within a gigabyte instead of filling the host."""
    out = tmp_path / "x"
    args = run_args(small_workload, out, policy="FF",
                    extra=("--trees", "1..100000000000000000000"))
    src = os.path.dirname(os.path.dirname(cli.__file__))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "pbtsim.cli", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=cap_memory, timeout=120)
    assert (proc.returncode, proc.stderr) == (2, "error: cannot select 41 landmarks from 40 nodes\n")
    assert not out.exists()


@pytest.mark.parametrize("field", ["node id", "weight", "seed"])
def test_overlong_number_exits_2_before_creating_out(small_workload, tmp_path, field):
    """A number with more digits than Python converts to an int
    (`sys.get_int_max_str_digits()`) is a parse error: exit 2 with one
    error line, no traceback and no `--out`."""
    snap, txs = small_workload
    digits = "9" * 5000
    extra = ()
    if field == "seed":
        extra = ("--seed", digits)
    else:
        row = f"1,{digits},5" if field == "node id" else f"1,2,{digits}"
        snap = tmp_path / "long.csv"
        snap.write_text(f"u,v,weight\n{row}\n")
    out = tmp_path / "x"
    args = run_args((snap, txs), out, extra=extra)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "pbtsim.cli", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    where = "" if field == "seed" else "line 2: "
    what = "amount" if field == "weight" else field
    limit = sys.get_int_max_str_digits()
    assert (proc.returncode, proc.stderr) == (2, f"error: {where}{what} has more than {limit} digits\n")
    assert not out.exists()


def test_huge_trees_sweep_exits_2_without_building_it(small_workload, tmp_path, capsys):
    # A list of every count would need terabytes; the bound is checked on the range.
    args = run_args(small_workload, tmp_path / "x", policy="GE-RAND-OND",
                    extra=("--trees", "1..1000000000000"))
    assert main(args) == 2
    assert "cannot select 41 landmarks from 40 nodes" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("empty", ["sample", "pool"])
def test_static_run_without_transactions_exits_2_before_creating_out(
        small_workload, tmp_path, capsys, empty):
    snap, txs = small_workload
    extra = ()
    if empty == "sample":
        extra = ("--sample", "0")
    else:
        txs = tmp_path / "empty.csv"
        txs.write_text("time,value,src,dst\n")
    assert main(run_args((snap, txs), tmp_path / "x", extra=extra)) == 2
    assert "static mode needs a nonempty transaction list" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_greedy_routing_on_tree_deeper_than_address_length(tmp_path):
    """A ring lattice without rewiring grows trees far deeper than the
    16-element address; return addresses pad to the next multiple of 16."""
    snap, txs = tmp_path / "s.csv", tmp_path / "t.csv"
    assert main([
        "generate", "--nodes", "400", "--model", "small-world", "--k", "4",
        "--rewire-p", "0", "--tx-count", "30", "--seed", "1",
        "--value-range", "0.01:0.1", "--weight-range", "100:500",
        "--snapshot-out", str(snap), "--transactions-out", str(txs),
    ]) == 0
    g = build_graph(parse_snapshot(snap.read_text()))
    embs = build_embeddings(g, g.select_landmarks(3, "degree"), seed=1)
    assert max(len(c) for emb in embs for c in emb.coord.values()) > 16
    out = tmp_path / "out"
    args = run_args((snap, txs), out, extra=("--runs", "1"))
    assert main(args) == 0
    row = (out / "summary.csv").read_text().splitlines()[-1].split(",")
    assert row[0] == "GE-RAND-OND" and float(row[1]) > 0


def test_run_self_link_change_exits_2_with_line(workload, tmp_path, capsys):
    changes = tmp_path / "changes.csv"
    changes.write_text("time,u,v,new_weight\n0,0,1,5\n1,1,1,5\n")
    args = run_args(workload, tmp_path / "x", extra=("--link-changes", str(changes)))
    args[args.index("static")] = "dynamic"
    assert main(args) == 2
    assert "line 3" in capsys.readouterr().err


def test_trees_sweep_emits_row_per_value(workload, tmp_path):
    out = tmp_path / "sweep"
    assert main(run_args(workload, out, extra=("--trees", "1..3", "--runs", "1"))) == 0
    rows = [
        line for line in (out / "summary.csv").read_text().splitlines()
        if line and not line.startswith(("#", "policy,"))
    ]
    assert [r.split(",")[0] for r in rows] == [
        "GE-RAND-OND@L1", "GE-RAND-OND@L2", "GE-RAND-OND@L3",
    ]


def test_compare_merges_summaries(workload, tmp_path, capsys):
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    assert main(run_args(workload, out1, policy="GE-RAND-OND")) == 0
    assert main(run_args(workload, out2, policy="LM-MUL-PER")) == 0
    code = main(["compare", str(out1 / "summary.csv"), str(out2 / "summary.csv")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    table = [l for l in lines if "," in l]
    assert table[0].startswith("policy,")
    assert {r.split(",")[0] for r in table[1:]} == {"GE-RAND-OND", "LM-MUL-PER"}


def test_compare_requires_two_inputs(workload, tmp_path):
    out1 = tmp_path / "only"
    assert main(run_args(workload, out1)) == 0
    assert main(["compare", str(out1 / "summary.csv")]) == 2


def test_compare_refuses_mismatched_fingerprints(workload, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(run_args(workload, out1)) == 0
    # different seed -> different fingerprint
    args = run_args(workload, out2)
    args[args.index("--seed") + 1] = "6"
    assert main(args) == 0
    assert main(["compare", str(out1 / "summary.csv"), str(out2 / "summary.csv")]) == 2


@pytest.mark.parametrize("bad_row", ["GE-RAND-OND,0.5,1", "GE-RAND-OND" + ",x" * 10])
def test_compare_malformed_summary_exits_2_before_printing(
        workload, tmp_path, capsys, bad_row):
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert main(run_args(workload, out1)) == 0
    assert main(run_args(workload, out2, policy="LM-MUL-PER")) == 0
    summary = out2 / "summary.csv"
    lines = summary.read_text().splitlines()
    lines[-1] = bad_row
    summary.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["compare", str(out1 / "summary.csv"), str(summary)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line {len(lines)}" in captured.err and str(summary) in captured.err


def test_generate_deterministic_files(tmp_path):
    pairs = []
    for tag in ("a", "b"):
        snap = tmp_path / f"{tag}.csv"
        txs = tmp_path / f"{tag}_tx.csv"
        assert main([
            "generate", "--nodes", "40", "--tx-count", "60", "--seed", "11",
            "--snapshot-out", str(snap), "--transactions-out", str(txs),
        ]) == 0
        pairs.append((snap.read_bytes(), txs.read_bytes()))
    assert pairs[0] == pairs[1]


@pytest.mark.parametrize("extra", [
    ("--m", "0"),
    ("--model", "small-world", "--k", "1"),
    ("--tx-count", "-1"),
    # and every other bad generator input: non-ASCII digits, non-finite
    # ranges, a rewiring probability outside [0, 1]
    ("--tx-count", "٣"),
    ("--seed", "٢"),
    ("--value-range", "1:nan"),
    ("--value-range", "1:inf"),
    ("--weight-range", "1:inf"),
    ("--model", "small-world", "--rewire-p", "2"),
    ("--model", "small-world", "--rewire-p", "-1"),
])
def test_generate_without_links_or_with_negative_count_exits_2(tmp_path, extra):
    args = ["generate", "--nodes", "10", "--tx-count", "5", *extra,
            "--snapshot-out", str(tmp_path / "s.csv"),
            "--transactions-out", str(tmp_path / "t.csv")]
    assert main(args) == 2
    assert not (tmp_path / "t.csv").exists()


def test_preprocess_subcommand(tmp_path, capsys):
    snap = tmp_path / "s.csv"
    txs = tmp_path / "t.csv"
    snap.write_text("u,v,weight\n0,1,5\n1,0,5\n7,8,1\n3,3,2\n")
    txs.write_text("time,value,src,dst\n0,1,0,1\n1,1,2,2\n")
    out = tmp_path / "clean"
    assert main([
        "preprocess", "--snapshot", str(snap), "--transactions", str(txs),
        "--out-dir", str(out),
    ]) == 0
    report = (out / "report.txt").read_text()
    assert "nodes_kept=2" in report
    assert "self_transactions_removed=1" in report
    assert (out / "snapshot.csv").read_text() == "u,v,weight\n0,1,5\n1,0,5\n"
    printed = capsys.readouterr().out
    assert "nodes_kept=2" in printed


def test_dynamic_mode_with_link_changes(workload, tmp_path):
    snap, txs = workload
    changes = tmp_path / "changes.csv"
    changes.write_text("time,u,v,new_weight\n1,0,1,0\n20,0,2,7.5\n")
    out = tmp_path / "dyn"
    code = main([
        "run", "--mode", "dynamic", "--policy", "GE-RAND-OND",
        "--snapshot", str(snap), "--transactions", str(txs),
        "--link-changes", str(changes), "--out", str(out),
        "--runs", "1", "--seed", "2", "--epoch", "50",
    ])
    assert code == 0
    assert (out / "summary.csv").exists()


# ---- the collector pause of `pbtsim run` -------------------------------------------


def payments_workload(root, payments):
    """An 80-node graph, `payments` payments, and one link removal per payment."""
    snap, txs, changes = root / "s.csv", root / "t.csv", root / "c.csv"
    assert main(["generate", "--nodes", "80", "--tx-count", str(payments), "--seed", "4",
                 "--snapshot-out", str(snap), "--transactions-out", str(txs)]) == 0
    links = [line.split(",")[:2] for line in snap.read_text().splitlines()[1:]]
    changes.write_text("time,u,v,new_weight\n" + "".join(
        f"{i}.5,{u},{v},0\n" for i, (u, v) in enumerate(links[:payments])))
    return snap, txs, changes


def garbage_left_by_run(root, policy, mode, payments):
    """Unreachable objects a collector-off `pbtsim run` leaves for the next collection."""
    snap, txs, changes = payments_workload(root, payments)
    args = ["run", "--mode", mode, "--policy", policy, "--snapshot", str(snap),
            "--transactions", str(txs), "--out", str(root / "out"), "--seed", "1"]
    if mode == "dynamic":
        args += ["--link-changes", str(changes)]
    gc.collect()
    gc.disable()
    try:
        assert main(args) == 0
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("policy,mode", [
    ("GE-RAND-OND", "static"), ("LM-MUL-PER", "static"), ("GE-RAND-OND", "dynamic")])
def test_run_garbage_does_not_grow_with_payments(tmp_path, policy, mode):
    """The paused collector is safe: reference counting frees what the payments make."""
    few, many = tmp_path / "few", tmp_path / "many"
    few.mkdir()
    many.mkdir()
    assert garbage_left_by_run(many, policy, mode, 200) <= \
        garbage_left_by_run(few, policy, mode, 20)


def test_run_pauses_the_collector_and_restores_the_callers_setting(
        small_workload, tmp_path, monkeypatch, capsys):
    seen = []
    run_static = cli.run_static

    def spy(*args):
        seen.append(gc.isenabled())
        return run_static(*args)

    monkeypatch.setattr(cli, "run_static", spy)
    assert gc.isenabled()
    assert main(run_args(small_workload, tmp_path / "ok")) == 0
    assert gc.isenabled() and seen == [False, False]
    bad = tmp_path / "bad.csv"
    bad.write_text("u,v,weight\n0,1,x\n")
    assert main(run_args((bad, small_workload[1]), tmp_path / "bad")) == 2
    assert "line 2" in capsys.readouterr().err
    assert gc.isenabled()
    gc.disable()
    try:
        assert main(run_args(small_workload, tmp_path / "off")) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


# c10 golden outputs: sha256 over the name and bytes of every file `pbtsim run`
# writes (per-run CSVs and summary.csv, in name order) on the c10 workload,
# one entry per grid policy and FF in each mode. Recorded before the
# transaction pipeline was collapsed into one greedy walk and one
# reserve/commit/rollback path; a refactor must leave every entry unchanged.
GOLDEN_DIGESTS = {
    ("LM-MUL-PER", "static"): "b9f86ab1729a6c23d30bd474c69918e5dc481d302b36d68c9482af721ec020c7",
    ("LM-MUL-PER", "dynamic"): "5264bd6359e911698a0b89a636a9c39e0fc1edac027c0ed8d5a5e930061056c0",
    ("LM-MUL-OND", "static"): "ef23cff5ca7a0e2b07fbc565eaa18006089d74f6c82b13ca7ee54242fc08f56b",
    ("LM-MUL-OND", "dynamic"): "8fa5f63686e778483a5d71b1aa10cab5a312d3a08b76a0710343656539c1f739",
    ("LM-RAND-PER", "static"): "78b02541c757218cc627eda20ebe2bab840ba4c66f4353e33ba57fef95d636e2",
    ("LM-RAND-PER", "dynamic"): "9915f24489e49b1fe9f5fa37ebba49130ae050845a891ba085562a173301d3d7",
    ("LM-RAND-OND", "static"): "6b7c0e9daa9e8f75d510acfa84c05de4620781971271076e7b517d380518ae62",
    ("LM-RAND-OND", "dynamic"): "0addc54e979f222323614a0681e46c50b932a15b6e4d55eb3a6498d820754810",
    ("GE-MUL-PER", "static"): "b773a2a477d84e51ceee5cdb74473e5504d2e1395dd0baef2dd6caa776eaab67",
    ("GE-MUL-PER", "dynamic"): "d82c83f7302da850ed21306996de4141e05bab37e413e840fba562a41f96b121",
    ("GE-MUL-OND", "static"): "4d5fd47195c543742e568d1a91015ac6d90bb4b65450bcb731052dd154fc0d5b",
    ("GE-MUL-OND", "dynamic"): "6f63eff4b176460b54b8366569d8799e79dc8804ab063a693542698d4f08858b",
    ("GE-RAND-PER", "static"): "31ca6474ced105fc482d8771d070249c89a1e835d234c8a219bf170711b6361f",
    ("GE-RAND-PER", "dynamic"): "a17d00e9a4bfdcb1736c52fac7bb20bea415061fca4c7a49d3e8555ebe3aa28f",
    ("GE-RAND-OND", "static"): "a2d225b93a2c3a712aed896ac437ef895eaf8d5eb0aa386712b41bb4864dfa2e",
    ("GE-RAND-OND", "dynamic"): "803cedf2db9e40e3850553c577c3ef3c5bb97c4512f92839106ec3e640699e7e",
    ("TO-MUL-PER", "static"): "08269cc0811d0f07a5ebb7fab63e034563e57709506885518f7501f6696e4a27",
    ("TO-MUL-PER", "dynamic"): "df0fd3eb4e04763da5c6017c4306b33dda273cd7b3588f91c6c29bd0fab10ab3",
    ("TO-RAND-OND", "static"): "ba7332f3d905aef79171b81ba301a339ba4be28c792cb92f9da4ffc7ee6d7a47",
    ("TO-RAND-OND", "dynamic"): "9e6587bba1fe5c91017f59af88bdf3aa478096f31d24e6992bb1290ff91388d3",
    ("FF", "static"): "4ca61979d30b7bf8766c8f88ca55fe9790d2822cfdc07a9eb1125754f00a7bd6",
    ("FF", "dynamic"): "03f48b3e331da0a8299e3d77c414bbdc28a45c5433ae827f191949df58ea6732",
}


@pytest.fixture(scope="module")
def c10_workload(tmp_path_factory):
    root = tmp_path_factory.mktemp("c10")
    snap = root / "snapshot.csv"
    txs = root / "transactions.csv"
    assert main([
        "generate", "--nodes", "150", "--tx-count", "400", "--seed", "8",
        "--snapshot-out", str(snap), "--transactions-out", str(txs),
    ]) == 0
    changes = root / "changes.csv"
    changes.write_text("time,u,v,new_weight\n1000000,0,1,0\n2000000,0,5,12\n")
    return snap, txs, changes


def c10_digest(workload, out, policy, mode):
    snap, txs, changes = workload
    args = [
        "run", "--mode", mode, "--policy", policy,
        "--snapshot", str(snap), "--transactions", str(txs),
        "--out", str(out), "--runs", "2", "--seed", "3", "--epoch", "100",
    ]
    if mode == "dynamic":
        args += ["--link-changes", str(changes)]
    assert main(args) == 0
    digest = hashlib.sha256()
    for name, data in read_all(out).items():
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()


@pytest.mark.parametrize("mode", ["static", "dynamic"])
@pytest.mark.parametrize("policy", [p.label for p in grid_policies()])
def test_golden_output(c10_workload, tmp_path, policy, mode):
    """Every grid policy writes the recorded c10 output, byte for byte."""
    assert c10_digest(c10_workload, tmp_path / "out", policy, mode) == \
        GOLDEN_DIGESTS[(policy, mode)]


@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_ff_builds_no_trees(c10_workload, tmp_path, monkeypatch, mode):
    """FF runs with landmark selection and tree building disabled, same output."""

    def refuse(*args, **kwargs):
        raise AssertionError("max-flow routing needs no trees")

    monkeypatch.setattr(engine, "build_embeddings", refuse)
    monkeypatch.setattr(CreditGraph, "select_landmarks", refuse)
    assert c10_digest(c10_workload, tmp_path / "out", "FF", mode) == \
        GOLDEN_DIGESTS[("FF", mode)]
