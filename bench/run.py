"""Benchmark of `pbtsim run`: four workloads, host-time metrics, a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --make-reference      # re-record bench/reference.json

Run from the root of a source checkout; pbtsim is imported from its
`src/` tree, nothing is installed. Each run generates the workload's
inputs from the seed (bench/gen.py), then starts one fresh
single-threaded child process (bench/harness.py) that repeats the same
`pbtsim run` for S seconds. The child splits each iteration into set-up
(entering `pbtsim run` up to the engine call) and engine time. After the
child ends, the outputs are checked (bench/checks.py) and one line of
JSON is printed last: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones (tx_per_s, setup_s,
peak_rss_mb); with `--trace 1` one traced iteration follows the untraced
ones and the metrics are the per-layer ones plus the tracing overhead.
An operation is one simulated transaction. Everything the run writes
goes under `.bench_work/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEEDS = range(0, 16)
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
import gen  # noqa: E402
from harness import CALIBRATION_REF_S  # noqa: E402

# Input sizes. "tiny" exists for the benchmark's own tests only.
SIZES = {
    "full": dict(desk=gen.DESK, crawl=gen.CRAWL, pool=1500, sample=15000,
                 churn_tx=800, churn_per_tx=20, crawl_tx=150),
    "tiny": dict(desk=dict(gen.DESK, n=150), crawl=dict(gen.CRAWL, n=2000), pool=60,
                 sample=300, churn_tx=60, churn_per_tx=4, crawl_tx=20),
}

# Why each workload: see bench/README.md.
WORKLOADS = {
    "sm-static-desk": dict(inputs="desk", policy="GE-RAND-OND", mode="static",
                           feasible_only=True, attempts=2, epoch=1000, flow_sample=20),
    "sw-static-desk": dict(inputs="desk", policy="LM-MUL-PER", mode="static",
                           feasible_only=True, sample=True, attempts=2, epoch=1000,
                           flow_sample=20),
    "sm-churn-dynamic": dict(inputs="churn", policy="GE-RAND-OND", mode="dynamic",
                             attempts=3, epoch=250),
    "sm-crawl-static": dict(inputs="crawl", policy="GE-RAND-OND", mode="static",
                            attempts=2, epoch=1000, flow_sample=3),
}
TREES = 3

END_TO_END_UNITS = {"tx_per_s": "tx/s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "count"


class Fatal(Exception):
    """The benchmark cannot run here; exit without a result."""


# ---- inputs ---------------------------------------------------------------------


def make_inputs(workload: str, seed: int, size: str, work: str):
    """Generate the workload's inputs, write them as CSV files, return (Inputs, files)."""
    from checks import Inputs

    w, z = WORKLOADS[workload], SIZES[size]
    cfg = z["crawl"] if w["inputs"] == "crawl" else z["desk"]
    lines, ends = gen.graph(seed, **cfg)
    count = {"desk": z["pool"], "churn": z["churn_tx"], "crawl": z["crawl_tx"]}[w["inputs"]]
    txs = gen.transactions(seed, ends, count, **cfg)
    files = {"snapshot": os.path.join(work, "snapshot.csv"),
             "transactions": os.path.join(work, "transactions.csv")}
    gen.write_snapshot(files["snapshot"], lines)
    gen.write_transactions(files["transactions"], txs)
    changes = []
    if w["inputs"] == "churn":
        changes = gen.churn(seed, lines, ends, count, z["churn_per_tx"], **cfg)
        files["link_changes"] = os.path.join(work, "link_changes.csv")
        gen.write_changes(files["link_changes"], changes)
    return Inputs(lines, txs, changes), files


def pbtsim_argv(workload: str, seed: int, size: str, files: dict) -> list[str]:
    w = WORKLOADS[workload]
    argv = ["run", "--mode", w["mode"], "--policy", w["policy"], "--trees", str(TREES),
            "--attempts", str(w["attempts"]), "--epoch", str(w["epoch"]), "--seed", str(seed),
            "--snapshot", files["snapshot"], "--transactions", files["transactions"]]
    if "link_changes" in files:
        argv += ["--link-changes", files["link_changes"]]
    if w.get("feasible_only"):
        argv.append("--feasible-only")
    if w.get("sample"):
        argv += ["--sample", str(SIZES[size]["sample"])]
    return argv


def plan_of(workload: str, size: str):
    from checks import Plan

    w = WORKLOADS[workload]
    return Plan(mode=w["mode"], periodic=w["policy"].endswith("-PER"), trees=TREES,
                attempts=w["attempts"], epoch=w["epoch"],
                sample=SIZES[size]["sample"] if w.get("sample") else None,
                feasible_only=bool(w.get("feasible_only")), flow_sample=w.get("flow_sample", 0))


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---- one run ----------------------------------------------------------------------


def run_child(work: str, argv: list[str], seconds: float, trace: bool, budget: float) -> dict:
    spec = {"src": SRC, "argv": argv, "seconds": seconds, "trace": trace, "work_dir": work}
    spec_path, result_path = os.path.join(work, "spec.json"), os.path.join(work, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    with open(os.path.join(work, "child.err"), "w+", encoding="utf-8") as err:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "harness.py"), spec_path, result_path],
                stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=work, timeout=budget,
            )
        except subprocess.TimeoutExpired:
            raise Fatal(f"the child did not finish within {budget:.0f} s") from None
        err.seek(0)
        text = err.read()
    if proc.returncode != 0:
        raise Fatal(f"the child exited with code {proc.returncode}:\n{text}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def load_reference() -> dict:
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
          started: float | None = None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the human-readable report."""
    from checks import check_output, expected_graph_digest

    started = time.monotonic() if started is None else started
    work = os.path.join(WORK, f"{size}-{workload}-seed{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inp, files = make_inputs(workload, seed, size, work)
    argv = pbtsim_argv(workload, seed, size, files)
    report = [f"workload {workload} seed {seed} size {size}: pbtsim {' '.join(argv)}"]
    report += [f"input {os.path.basename(p)} sha256={sha256_file(p)}" for p in files.values()]

    budget = DEADLINE_S - (time.monotonic() - started)
    res = run_child(work, argv, seconds, trace, budget)
    its = res["iterations"] + ([res["traced"]] if trace else [])
    completed = [it["rc"] == 0 and it["engine_calls"] == 1 for it in its]
    ok = [it for it, done in zip(res["iterations"], completed) if done]
    run_fail: list[str] = []
    failed = 0
    attempted = 0
    verdict = None
    if ok:
        verdict = check_output(os.path.join(work, "out-first"), inp, plan_of(workload, size), seed)
        run_fail += verdict.run
        per_iteration = ok[0]["transactions"]
        if verdict.records != per_iteration:
            run_fail.append(f"{verdict.records} records for {per_iteration} engine transactions")
        expected_graph = expected_graph_digest(inp)
        for it in its:
            if it.get("output") != ok[0]["output"]:
                run_fail.append("an iteration's output differs from the first iteration's")
            if it.get("graph_after") != [expected_graph]:
                run_fail.append("the caller's graph differs from the snapshot after the engine call")
        reference = load_reference().get(size, {}).get(workload, {}).get(str(seed))
        if reference is not None and reference != ok[0]["output"]:
            run_fail.append("output digest differs from bench/reference.json "
                            "(re-baseline on purpose with: python3 bench/run.py --make-reference)")
    else:
        run_fail.append("no iteration completed; output checks not run")
        per_iteration = len(inp.transactions) if not WORKLOADS[workload].get("sample") \
            else SIZES[size]["sample"]
    for it, done in zip(its, completed):
        attempted += per_iteration
        if done:
            failed += len(verdict.failed) if verdict else 0
        else:
            failed += per_iteration
            report.append(f"iteration failed: rc={it['rc']} {it['error'] or ''}".rstrip())
    run_fail = sorted(set(run_fail))

    report.append(f"iterations {len(its)} (completed {sum(completed)}), "
                  f"{per_iteration} transactions each")
    if verdict is not None:
        for index, reason in sorted(verdict.failed.items())[:10]:
            report.append(f"failed transaction {index}: {reason}")
        report.append(f"checks: {'all passed' if not run_fail and not verdict.failed else 'FAILED'}")
        with open(os.path.join(work, "out-first", "summary.csv"), encoding="utf-8") as fh:
            row = [line for line in fh if not line.startswith(("#", "policy,"))][0].strip()
        names = ("success_ratio", "delay_hops", "tx_messages", "path_len", "stab_messages")
        values = row.split(",")[1:1 + len(names)]
        report.append("simulated " + " ".join(f"{n}={v}" for n, v in zip(names, values)))
        report.append(f"output sha256={ok[0]['output']}")
    report += [f"check failed: {reason}" for reason in run_fail]

    if trace:
        metrics = dict(res["layers"])
        # Wall times scaled by the calibration at each iteration's engine call.
        traced = res["traced"]
        if ok and traced.get("calibration_s"):
            untraced = statistics.median(it["wall_s"] / it["calibration_s"] for it in ok)
            metrics["trace.overhead_pct"] = 100.0 * (
                traced["wall_s"] / traced["calibration_s"] / untraced - 1.0)
        units = {name: layer_unit(name) for name in metrics}
        report.append(f"spans written to {os.path.join(work, 'spans.csv')}")
    else:
        metrics = {}
        if ok:
            # Host seconds scaled to the reference host's speed: a phase that ran while
            # calibration took twice its reference time counts half its time. Medians
            # over iterations, so that a slow spell within one iteration does not count.
            rate = [it["transactions"] / it["engine_s"] for it in ok]
            metrics = {
                "tx_per_s": statistics.median(
                    r * it["engine_calibration_s"] / CALIBRATION_REF_S for r, it in zip(rate, ok)),
                "setup_s": statistics.median(
                    it["setup_s"] * CALIBRATION_REF_S / it["setup_calibration_s"] for it in ok),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            report.append(
                f"host calibration median {statistics.median(it['engine_calibration_s'] for it in ok):.4f} s "
                f"(reference {CALIBRATION_REF_S} s); unscaled medians tx_per_s "
                f"{statistics.median(rate):.6g}, setup_s {statistics.median(it['setup_s'] for it in ok):.6g}")
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        report.append(f"metric {name} = {value:.6g} {units[name]}")
    report.append(f"operations attempted={attempted} failed={failed}")
    result = {
        "correct": not run_fail,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, report


def make_reference() -> int:
    """Re-record the output digest of one iteration per workload and reference seed."""
    digests: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            result, report = bench(workload, seed, 0, False)
            if not result["correct"] or result["failed"]:
                print("\n".join(report), file=sys.stderr)
                raise Fatal(f"{workload} seed {seed} fails its checks; no reference written")
            digest = [line for line in report if line.startswith("output sha256=")][0]
            digests.setdefault(workload, {})[str(seed)] = digest.split("=", 1)[1]
            print(f"{workload} seed {seed}: {digests[workload][str(seed)]}", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"full": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "pbtsim", "cli.py")):
            raise Fatal(f"no pbtsim source tree under {SRC}; run from the root of a checkout")
        try:
            import checks  # noqa: F401  (needs networkx)
        except ImportError as e:
            raise Fatal(f"the output checks cannot run: {e}") from None
        if args.make_reference:
            return make_reference()
        if args.workload is None:
            parser.error("--workload is required")
        result, report = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                               "full", started)
    except Fatal as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
