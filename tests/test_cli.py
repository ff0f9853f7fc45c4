import hashlib
import os

import pytest

import pbtsim.engine as engine
from pbtsim.cli import main
from pbtsim.graph import CreditGraph


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


# sha256 over ff_run0/1 transaction and epoch CSVs, in name order, as written
# while FF still selected landmarks and built trees it never read.
FF_C10_DIGESTS = {
    "static": "183876e5caf4ea3fcbb76527fa35670118112d9b90190df05e43393dd3d4b5c0",
    "dynamic": "3fe33b9f4d803460158182ddfdeb564f002396453937d4ce962146e775660e73",
}


@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_ff_builds_no_trees(tmp_path, monkeypatch, mode):
    """FF runs with landmark selection and tree building disabled, same output."""
    snap = tmp_path / "snapshot.csv"
    txs = tmp_path / "transactions.csv"
    assert main([
        "generate", "--nodes", "150", "--tx-count", "400", "--seed", "8",
        "--snapshot-out", str(snap), "--transactions-out", str(txs),
    ]) == 0
    changes = tmp_path / "changes.csv"
    changes.write_text("time,u,v,new_weight\n1000000,0,1,0\n2000000,0,5,12\n")

    def refuse(*args, **kwargs):
        raise AssertionError("max-flow routing needs no trees")

    monkeypatch.setattr(engine, "build_embeddings", refuse)
    monkeypatch.setattr(CreditGraph, "select_landmarks", refuse)
    out = tmp_path / "out"
    args = [
        "run", "--mode", mode, "--policy", "FF",
        "--snapshot", str(snap), "--transactions", str(txs),
        "--out", str(out), "--runs", "2", "--seed", "3", "--epoch", "100",
    ]
    if mode == "dynamic":
        args += ["--link-changes", str(changes)]
    assert main(args) == 0
    digest = hashlib.sha256()
    for name, data in read_all(out).items():
        if name.startswith("ff_run"):
            digest.update(data)
    assert digest.hexdigest() == FF_C10_DIGESTS[mode]
