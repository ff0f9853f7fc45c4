"""Child process of the benchmark: runs `pbtsim run` in-process and times it.

    python3 bench/harness.py SPEC.json RESULT.json

SPEC names the source tree to import pbtsim from, the `pbtsim run`
arguments, the run length and whether to add one traced iteration. The
child repeats the same `pbtsim run` (an iteration) for about the run
length, at least once; every iteration simulates the same transactions
and writes byte-identical output. Set-up and engine time are split at the
once-per-run engine entry point that `pbtsim.cli` looks up
(`run_static` or `run_dynamic`), which is wrapped from outside. A fixed
piece of calibration work runs before the first iteration, at each engine
call and after each iteration; its time gives the host's speed during each
set-up and each engine call.

With tracing on, one more iteration runs with every layer's public
functions wrapped under the name their caller looks them up by. Each
wrapper records a span (name, transaction, parent span, start, end) in
memory; the per-layer metrics are computed from the spans afterwards and
the spans are written to a CSV file.
"""

from __future__ import annotations

import array
import collections
import gc
import hashlib
import heapq
import json
import os
import random
import resource
import sys
import time
import traceback

perf = time.perf_counter


def lines_digest(node_count: int, rows) -> str:
    """sha256 of a node count and sorted (u, v, weight, reserved) rows of directed lines."""
    h = hashlib.sha256(f"nodes={node_count}\n".encode())
    for u, v, w, r in rows:
        h.update(f"{u},{v},{w},{r}\n".encode())
    return h.hexdigest()


def graph_digest(g) -> str:
    """lines_digest of a pbtsim CreditGraph: every line with a positive weight."""
    rows = ((u, v, g.weight(u, v), g.reserved(u, v))
            for u in sorted(g.nodes) for v in sorted(g.neighbors(u)) if g.weight(u, v))
    return lines_digest(len(g.nodes), rows)


def dir_digest(path: str) -> str:
    """sha256 over the names and bytes of the files `pbtsim run` wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---- host speed ------------------------------------------------------------------

# What one calibrate() call takes on the reference host (the 2-vCPU machine
# of bench/README.md at its usual speed). Times are scaled to this speed.
CALIBRATION_REF_S = 0.22


def calibrate() -> float:
    """Seconds that one fixed piece of pure-Python work takes now.

    The work resembles the program's own (dict and set lookups, a BFS with
    a deque, keyed hashes, a heap, sorting) but uses nothing of pbtsim, so
    no change to the program changes it. Its time follows the host's speed,
    which on a shared machine changes by up to half for seconds or minutes.
    """
    t0 = perf()
    rng = random.Random(7)
    n = 5000
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for v in range(1, n):
        for _ in range(3):
            u = rng.randrange(v)
            adj[v].add(u)
            adj[u].add(v)
    key = b"calibrate-key-16"
    acc = 0
    for src in range(0, n, 500):
        dist = {src: 0}
        queue = collections.deque([src])
        heap: list[tuple[bytes, int]] = []
        while queue:
            u = queue.popleft()
            for w in sorted(adj[u]):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
                    digest = hashlib.blake2b(w.to_bytes(4, "little"), key=key, digest_size=8)
                    heapq.heappush(heap, (digest.digest(), w))
        while heap:
            acc ^= heapq.heappop(heap)[1]
    if acc < 0:  # keeps the work from being skipped; never true
        raise AssertionError
    return perf() - t0


# ---- tracing -------------------------------------------------------------------


class Tracer:
    """In-memory span store.

    `net` is the time inside the wrapped call; `gross` adds the wrapper's
    own bookkeeping, and is what a parent subtracts for its self time, so
    that the cost of tracing a child is not charged to the parent.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array.array("i")
        self.tx = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.gross = array.array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.current_tx = -1
        self.next_tx = 0
        self.in_engine = False
        self.ctx_tx: dict[int, tuple[object, int]] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, before=None, after=None, engine_only=False):
        nid = len(self.names)
        self.names.append(name)
        tr = self

        def traced(*args, **kwargs):
            if engine_only and not tr.in_engine:
                return fn(*args, **kwargs)
            t_in = perf()
            if before is not None:
                before(tr, args)
            sid = len(tr.name)
            tr.name.append(nid)
            tr.tx.append(tr.current_tx)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.gross.append(0.0)
            tr.stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tr.stack.pop()
                tr.start[sid] = t0
                tr.end[sid] = t1
            if after is not None:
                after(tr, args, result)
            tr.gross[sid] = perf() - t_in
            return result

        return traced

    def spans_of(self, name: str) -> list[int]:
        ids = {i for i, n in enumerate(self.names) if n == name}
        return [i for i, n in enumerate(self.name) if n in ids]

    def total(self, name: str) -> float:
        start, end = self.start, self.end
        return sum(end[i] - start[i] for i in self.spans_of(name))

    def self_time(self, name: str) -> float:
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.gross[i]
        return sum(self.end[i] - self.start[i] - child[i] for i in self.spans_of(name))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("span,parent,tx,name,start_s,end_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                fh.write(f"{i},{self.parent[i]},{self.tx[i]},{self.names[self.name[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def install_tracer(tr: Tracer, patches: list) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    import pbtsim.baselines as baselines
    import pbtsim.cli as cli
    import pbtsim.engine as engine
    import pbtsim.graph as graph
    import pbtsim.routing as routing
    import pbtsim.stabilization as stabilization

    def patch(obj, attr, name, **hooks):
        original = getattr(obj, attr)
        patches.append((obj, attr, original))
        setattr(obj, attr, tr.wrap(name, original, **hooks))

    def new_tx(t, args):
        t.current_tx = t.next_tx
        t.next_tx += 1

    def no_tx(t, *_):
        t.current_tx = -1

    def scanned(t, args):
        g, emb, current = args[0], args[1], args[2]
        if current in emb.coord:
            t.count("routing.neighbors_scanned", len(g.neighbors(current)))

    def ok(key):
        return lambda t, args, result: t.count(key, bool(result.success))

    def begin_done(t, args, ctx):
        t.ctx_tx[id(ctx)] = (ctx, t.current_tx)

    def attempt_tx(t, args):
        t.current_tx = t.ctx_tx[id(args[6])][1]

    def refused(t, args, result):
        if not result:
            t.count("graph.reserve_refused")

    def repaired(t, args, reports):
        t.count("stabilization.repairs", len(reports))
        t.count("stabilization.nodes_reassigned", sum(r.nodes_reassigned for r in reports))

    for fn in ("parse_snapshot", "parse_transactions", "parse_link_changes"):
        patch(cli, fn, "workload.parse")
    patch(cli, "build_graph", "workload.build_graph")
    patch(cli, "flow_feasible", "baselines.flow_feasible", before=new_tx, after=no_tx)
    patch(graph.CreditGraph, "select_landmarks", "graph.select_landmarks", before=no_tx)
    patch(graph.CreditGraph, "reserve", "graph.reserve", after=refused)
    patch(graph.CreditGraph, "commit_payment", "graph.commit_payment")
    patch(graph.CreditGraph, "rollback_weights", "graph.rollback_weights")
    patch(graph.CreditGraph, "set_link", "graph.set_link", before=no_tx, engine_only=True)
    patch(engine, "build_embeddings", "embedding.build_embeddings", before=no_tx)
    patch(stabilization, "build_embeddings", "embedding.build_embeddings")
    patch(engine, "periodic_rebuild", "stabilization.periodic_rebuild", before=no_tx)
    patch(engine, "on_link_change", "stabilization.on_link_change", after=repaired)
    patch(routing, "gen_return_address", "embedding.gen_return_address")
    patch(routing, "address_distance", "embedding.address_distance")
    patch(routing, "next_hop", "routing.next_hop", before=scanned)
    patch(baselines, "next_hop", "routing.next_hop", before=scanned)
    patch(baselines, "route_probe", "routing.route_probe", after=ok("routing.route_probe_ok"))
    patch(baselines, "landmark_paths", "baselines.landmark_paths")
    patch(baselines, "mpc_min_assign", "baselines.mpc_min_assign")
    for cls in (baselines.GreedyExecutor, baselines.StructuralExecutor, baselines.MaxFlowExecutor):
        patch(cls, "begin", "baselines.begin", before=new_tx, after=begin_done)
        patch(cls, "attempt", "baselines.attempt", before=attempt_tx,
              after=ok("baselines.attempt_ok"))


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced `pbtsim run`, keyed by metric name."""
    calls = lambda name: len(tr.spans_of(name))
    attempts_ms = [(tr.end[i] - tr.start[i]) * 1e3 for i in tr.spans_of("baselines.attempt")]
    c = tr.counts.get
    return {
        "workload.parse_s": tr.total("workload.parse"),
        "workload.build_graph_s": tr.total("workload.build_graph"),
        "baselines.flow_feasible_calls": calls("baselines.flow_feasible"),
        "baselines.flow_feasible_s": tr.total("baselines.flow_feasible"),
        "graph.select_landmarks_s": tr.total("graph.select_landmarks"),
        "embedding.build_embeddings_calls": calls("embedding.build_embeddings"),
        "embedding.build_embeddings_s": tr.total("embedding.build_embeddings"),
        "stabilization.periodic_rebuild_calls": calls("stabilization.periodic_rebuild"),
        "stabilization.periodic_rebuild_s": tr.total("stabilization.periodic_rebuild"),
        "routing.next_hop_calls": calls("routing.next_hop"),
        "routing.next_hop_self_s": tr.self_time("routing.next_hop"),
        "routing.neighbors_scanned": c("routing.neighbors_scanned", 0),
        "embedding.address_distance_calls": calls("embedding.address_distance"),
        "embedding.address_distance_s": tr.total("embedding.address_distance"),
        "embedding.gen_return_address_calls": calls("embedding.gen_return_address"),
        "embedding.gen_return_address_s": tr.total("embedding.gen_return_address"),
        "routing.route_probe_calls": calls("routing.route_probe"),
        "routing.route_probe_ok": c("routing.route_probe_ok", 0),
        "routing.route_probe_s": tr.total("routing.route_probe"),
        "baselines.landmark_paths_s": tr.total("baselines.landmark_paths"),
        "baselines.mpc_min_assign_calls": calls("baselines.mpc_min_assign"),
        "baselines.mpc_min_assign_s": tr.total("baselines.mpc_min_assign"),
        "graph.reserve_calls": calls("graph.reserve"),
        "graph.reserve_refused": c("graph.reserve_refused", 0),
        "graph.reserve_s": tr.total("graph.reserve"),
        "graph.commit_payment_s": tr.total("graph.commit_payment"),
        "graph.rollback_weights_s": tr.total("graph.rollback_weights"),
        "graph.set_link_calls": calls("graph.set_link"),
        "graph.set_link_s": tr.total("graph.set_link"),
        "stabilization.on_link_change_calls": calls("stabilization.on_link_change"),
        "stabilization.on_link_change_s": tr.total("stabilization.on_link_change"),
        "stabilization.repairs": c("stabilization.repairs", 0),
        "stabilization.nodes_reassigned": c("stabilization.nodes_reassigned", 0),
        "engine.run_s": tr.total("engine.run"),
        "engine.self_s": tr.self_time("engine.run"),
        "engine.events": c("engine.events", 0),
        "engine.retries": calls("baselines.attempt") - calls("baselines.begin"),
        "baselines.attempt_calls": calls("baselines.attempt"),
        "baselines.attempt_ok": c("baselines.attempt_ok", 0),
        "baselines.attempt_ms_p50": _percentile(attempts_ms, 0.50),
        "baselines.attempt_ms_p99": _percentile(attempts_ms, 0.99),
    }


# ---- iterations ------------------------------------------------------------------


class Engine:
    """Times the engine entry point and snapshots the caller's graph after it.

    A calibration runs at the entry point, between set-up and engine,
    outside both timings.
    """

    def __init__(self, cli, transaction_type) -> None:
        self.calls: list[dict] = []
        self.tracer: Tracer | None = None
        self._tx_type = transaction_type
        for name in ("run_static", "run_dynamic"):
            setattr(cli, name, self._wrap(getattr(cli, name)))

    def _wrap(self, fn):
        def engine(*args, **kwargs):
            entered = perf()
            calibration = calibrate()
            tr = self.tracer
            call = fn
            if tr is not None:
                tr.in_engine, tr.current_tx, tr.next_tx = True, -1, 0
                tr.count("engine.events", len(args[1]))
                call = tr.wrap("engine.run", fn)
            t0 = perf()
            try:
                metrics = call(*args, **kwargs)
            finally:
                t1 = perf()
                if tr is not None:
                    tr.in_engine = False
            self.calls.append({
                "entered": entered, "calibration_s": calibration, "start": t0, "end": t1,
                "transactions": sum(isinstance(e, self._tx_type) for e in args[1]),
                "graph_after": graph_digest(args[0]),
            })
            return metrics

        return engine


def run_iteration(cli, engine: Engine, argv: list[str], out: str) -> dict:
    engine.calls.clear()
    gc.collect()
    error = None
    t0 = perf()
    try:
        rc = cli.main(argv + ["--out", out])
    except Exception:  # the program raised: every transaction of the iteration fails
        rc, error = None, traceback.format_exc()
    calls = engine.calls
    wall = perf() - t0 - sum(c["start"] - c["entered"] for c in calls)
    it = {"rc": rc, "error": error, "wall_s": wall, "engine_calls": len(calls)}
    if rc == 0 and calls:
        it.update(
            setup_s=calls[0]["entered"] - t0,
            calibration_s=calls[0]["calibration_s"],
            engine_s=sum(c["end"] - c["start"] for c in calls),
            transactions=sum(c["transactions"] for c in calls),
            graph_after=[c["graph_after"] for c in calls],
            output=dir_digest(out),
        )
    return it


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import pbtsim
    import pbtsim.cli as cli
    from pbtsim.engine import TransactionEvent

    if not os.path.realpath(pbtsim.__file__).startswith(src + os.sep):
        print(f"pbtsim imported from {pbtsim.__file__}, not from {src}", file=sys.stderr)
        return 2
    engine = Engine(cli, TransactionEvent)
    work = spec["work_dir"]
    iterations = []
    calibrate()  # warm-up, not used
    start = perf()
    before = calibrate()
    while True:
        out = os.path.join(work, "out-first" if not iterations else "out-again")
        it = run_iteration(cli, engine, spec["argv"], out)
        after = calibrate()
        # The host's speed during set-up and during the engine call, from the
        # calibrations before the iteration, at the engine call and after it.
        middle = it.get("calibration_s")
        if middle is not None:
            it["setup_calibration_s"] = (before + middle) / 2
            it["engine_calibration_s"] = (middle + after) / 2
        before = after
        iterations.append(it)
        # Start another iteration only if at least half of it fits, so that a run
        # ends within half an iteration of its length.
        if perf() - start + it["wall_s"] / 2 >= spec["seconds"]:
            break
    result = {
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if spec["trace"]:
        tr = Tracer()
        patches: list = []
        install_tracer(tr, patches)
        engine.tracer = tr
        result["traced"] = run_iteration(cli, engine, spec["argv"], os.path.join(work, "out-traced"))
        for obj, attr, original in reversed(patches):
            setattr(obj, attr, original)
        result["layers"] = layer_metrics(tr)
        tr.write(os.path.join(work, "spans.csv"))
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
