"""Output checks of the benchmark, computed apart from pbtsim.

Each check reads the files one `pbtsim run` wrote and compares them with
what the generated inputs imply, or with a property the model must have.
A failure tied to one transaction record makes that transaction a failed
operation; any other failure fails the run as a whole.
"""

from __future__ import annotations

import csv
import glob
import os
import random
from collections import defaultdict
from dataclasses import dataclass, field

import networkx as nx
from networkx.algorithms.flow import build_residual_network, edmonds_karp

from harness import lines_digest


@dataclass
class Inputs:
    """The generated inputs of one run, in micro-units."""

    lines: dict[tuple[int, int], int]
    transactions: list[tuple[int, int, int, int]]  # (time, value, src, dst)
    changes: list[tuple[int, int, int, int]] = field(default_factory=list)  # (time, u, v, w)

    def pair_count(self) -> int:
        return len({(min(u, v), max(u, v)) for u, v in self.lines})


@dataclass
class Plan:
    """What the run was asked to do, as far as the checks need it."""

    mode: str
    periodic: bool
    trees: int
    attempts: int
    epoch: int
    sample: int | None = None
    feasible_only: bool = False
    flow_sample: int = 20


@dataclass
class Verdict:
    failed: dict[int, str] = field(default_factory=dict)  # record index -> reason
    run: list[str] = field(default_factory=list)
    records: int = 0
    successes: int = 0

    def fail(self, index: int, reason: str) -> None:
        self.failed.setdefault(index, reason)


def micro(text: str) -> int:
    whole, _, frac = text.partition(".")
    return int(whole) * 10**6 + int(frac.ljust(6, "0") or 0)


def read_rows(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def output_rows(out_dir: str) -> tuple[list[dict[str, str]], list[dict[str, str]]]:
    """Transaction and epoch rows of the single run a `pbtsim run` wrote."""
    (tx_path,) = glob.glob(os.path.join(out_dir, "*_run0_transactions.csv"))
    (ep_path,) = glob.glob(os.path.join(out_dir, "*_run0_epochs.csv"))
    return read_rows(tx_path), read_rows(ep_path)


def within_hops(out_adj, in_adj, s: int, t: int, limit: int) -> bool:
    """True iff t is reachable from s in at most `limit` hops (bidirectional BFS)."""
    if s == t:
        return True
    seen_f, seen_b = {s}, {t}
    front_f, front_b = [s], [t]
    for _ in range(limit):
        forward = len(front_f) <= len(front_b)
        adj, seen, other, front = (
            (out_adj, seen_f, seen_b, front_f) if forward else (in_adj, seen_b, seen_f, front_b)
        )
        new = []
        for x in front:
            for y in adj.get(x, ()):
                if y in other:
                    return True
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        if not new:
            return False
        if forward:
            front_f = new
        else:
            front_b = new
    return False


def adjacency(inp: Inputs, mode: str) -> tuple[dict, dict]:
    """Static: the input's directed credit lines. Dynamic: every pair ever linked, both ways."""
    out_adj: dict[int, list[int]] = defaultdict(list)
    in_adj: dict[int, list[int]] = defaultdict(list)
    pairs = set(inp.lines)
    if mode == "dynamic":
        pairs |= {(u, v) for _, u, v, _ in inp.changes}
        pairs |= {(v, u) for u, v in pairs}
    for u, v in pairs:
        out_adj[u].append(v)
        in_adj[v].append(u)
    return out_adj, in_adj


class FlowOracle:
    """networkx maximum flow on the input graph, capacities = weights."""

    def __init__(self, lines: dict[tuple[int, int], int]) -> None:
        self.graph = nx.DiGraph()
        self.graph.add_edges_from((u, v, {"capacity": w}) for (u, v), w in lines.items())
        self.residual = build_residual_network(self.graph, "capacity")

    def feasible(self, src: int, dst: int, value: int) -> bool:
        if src not in self.graph or dst not in self.graph:
            return False
        flow = edmonds_karp(self.graph, src, dst, residual=self.residual, cutoff=value,
                            value_only=True)
        return flow.graph["flow_value"] >= value


def check_records(inp: Inputs, plan: Plan, tx_rows, seed: int, verdict: Verdict,
                  oracle: FlowOracle | None) -> None:
    by_time = {t: (value, src, dst) for t, value, src, dst in inp.transactions}
    indices = [int(r["index"]) for r in tx_rows]
    if sorted(indices) != list(range(len(tx_rows))):
        verdict.run.append("transaction records are not numbered 0..n-1 once each")
    times = [micro(r["time"]) for r in tx_rows]
    input_times = [t for t, *_ in inp.transactions]
    dropped: list[int] = []
    if plan.mode == "dynamic":
        if sorted(times) != sorted(input_times):
            verdict.run.append("dynamic run: records do not match the input transactions one to one")
    elif plan.sample is not None:
        if len(tx_rows) != plan.sample:
            verdict.run.append(f"{len(tx_rows)} records for a sample of {plan.sample}")
    else:
        kept = set(times)
        if len(kept) != len(times) or times != sorted(times):
            verdict.run.append("static run: a transaction has more than one record")
        dropped = [t for t in input_times if t not in kept]
        if dropped and not plan.feasible_only:
            verdict.run.append(f"static run: {len(dropped)} input transactions have no record")

    out_adj, in_adj = adjacency(inp, plan.mode)
    successes = []  # positions in tx_rows
    for pos, (r, t) in enumerate(zip(tx_rows, times)):
        i = int(r["index"])
        if t not in by_time:
            verdict.fail(i, "record of no input transaction")
            continue
        value, src, dst = by_time[t]
        if not 1 <= int(r["attempts"]) <= plan.attempts:
            verdict.fail(i, f"attempts {r['attempts']} outside 1..{plan.attempts}")
        if r["success"] == "1":
            successes.append(pos)
            limit = int(float(r["mean_path_len"]) + 1e-9)
            if not within_hops(out_adj, in_adj, src, dst, limit):
                verdict.fail(i, f"mean path {r['mean_path_len']} shorter than the BFS distance")
    verdict.records = len(tx_rows)
    verdict.successes = len(successes)

    if oracle is None:
        return
    rng = random.Random(f"flow-sample:{seed}")
    for pos in rng.sample(successes, min(plan.flow_sample, len(successes))):
        value, src, dst = by_time[times[pos]]
        if not oracle.feasible(src, dst, value):
            verdict.fail(int(tx_rows[pos]["index"]), "success is infeasible under networkx maximum flow")
    for t in rng.sample(dropped, min(plan.flow_sample, len(dropped))):
        value, src, dst = by_time[t]
        if oracle.feasible(src, dst, value):
            verdict.run.append(f"the feasible-only filter dropped the feasible transaction at {t}")


def check_epochs(inp: Inputs, plan: Plan, tx_rows, ep_rows, verdict: Verdict) -> None:
    if sum(int(e["transactions"]) for e in ep_rows) != len(tx_rows):
        verdict.run.append("per-epoch transaction totals do not sum to the records")
    if sum(int(e["successes"]) for e in ep_rows) != sum(r["success"] == "1" for r in tx_rows):
        verdict.run.append("per-epoch success totals do not sum to the records")
    if plan.mode == "static":
        per_epoch: dict[int, list[int]] = defaultdict(lambda: [0, 0])
        for r in tx_rows:
            cell = per_epoch[int(r["index"]) // plan.epoch]
            cell[0] += 1
            cell[1] += r["success"] == "1"
        for e in ep_rows:
            if per_epoch[int(e["epoch"])] != [int(e["transactions"]), int(e["successes"])]:
                verdict.run.append(f"epoch {e['epoch']} totals differ from its records")
                break
    if plan.periodic and plan.mode == "static":
        expected = plan.trees * inp.pair_count()
        wrong = [e["epoch"] for e in ep_rows if int(e["stab_messages"]) != expected]
        if wrong:
            verdict.run.append(
                f"periodic stabilization messages != trees x links ({expected}) in epochs {wrong[:5]}"
            )


def expected_graph_digest(inp: Inputs) -> str:
    """What harness.graph_digest must read after the engine: the snapshot, nothing reserved."""
    nodes = {u for pair in inp.lines for u in pair}
    return lines_digest(len(nodes), ((u, v, inp.lines[(u, v)], 0) for u, v in sorted(inp.lines)))


def check_output(out_dir: str, inp: Inputs, plan: Plan, seed: int) -> Verdict:
    """Run every output check on one `pbtsim run` output directory."""
    verdict = Verdict()
    tx_rows, ep_rows = output_rows(out_dir)
    oracle = FlowOracle(inp.lines) if plan.mode == "static" else None
    check_records(inp, plan, tx_rows, seed, verdict, oracle)
    check_epochs(inp, plan, tx_rows, ep_rows, verdict)
    return verdict
