"""Reproduction harness: configure runs, compare policies, emit metric tables.

Exit codes are a stable contract: 0 success, 2 usage or configuration
problems, 3 runtime invariant violations. Every summary file embeds the
full configuration and a workload content hash so comparisons are
provably like-for-like; `compare` refuses summaries whose fingerprints
differ. Every integer read from a file, a flag or a config value is a
nonnegative number in ASCII digits (`credit.parse_int`), at most
`sys.get_int_max_str_digits()` of them (4,300 unless Python is told
otherwise); the whole part of an amount has the same limit
(`credit.parse_credit`), and so has `--seed + --runs - 1`, the seed of the
last run. Anything else exits 2. In dynamic mode the retry window `--tl`
defaults to ceil(2 x the mean gap between payments).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import os
import random
import statistics
import sys

from .baselines import flow_feasible, parse_policy
from .credit import format_credit, parse_credit, parse_int
from .engine import (
    Event,
    RunMetrics,
    SimParams,
    run_dynamic,
    run_static,
)
from .errors import ConfigError, InternalError, ParseError
from .workload import (
    build_graph,
    format_report,
    generate_synthetic,
    parse_link_changes,
    parse_snapshot,
    parse_transactions,
    preprocess,
    serialize_link_changes,
    serialize_snapshot,
    serialize_transactions,
)

SUMMARY_METRICS = ("success_ratio", "delay_hops", "tx_messages", "path_len", "stab_messages")

_CONFIG_KEYS = {
    "mode", "policy", "snapshot", "transactions", "link_changes", "out",
    "trees", "attempts", "epoch", "tl", "landmarks", "runs", "seed",
    "sample", "feasible_only", "addr_overhead",
}


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for i, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{i}: bad config line {line!r}")
        values[key] = value.strip()
    return values


def _parse_trees(text: str) -> range:
    """A tree count, or every count of a `lo..hi` sweep."""
    lo_text, sweep, hi_text = text.partition("..")
    lo = parse_int(lo_text, "trees")
    hi = parse_int(hi_text, "trees") if sweep else lo
    if lo < 1 or hi < lo:
        raise ConfigError(f"bad trees value {text!r}")
    return range(lo, hi + 1)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {text!r}")


def _atomic_write(path: str, content: str) -> None:
    """Write through `<path>.tmp` and a rename; on failure the temporary file is removed."""
    tmp = path + ".tmp"
    opened = False
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            opened = True
            fh.write(content)
        os.replace(tmp, path)
    except OSError as e:
        if opened:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise ConfigError(f"cannot write {path}: {e.strerror}") from None


def _make_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create directory {path}: {e.strerror}") from None


def _read_text(path: str) -> str:
    """A UTF-8 file's text with universal newlines; bad bytes fail at their line."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ParseError(f"{path}: invalid UTF-8 byte 0x{data[e.start]:02x}", line) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


# ---- run ---------------------------------------------------------------------


class _RunOptions:
    """Merged config-file and flag values for cmd_run."""

    def __init__(self, args: argparse.Namespace):
        cfg = _load_config(args.config) if args.config else {}

        def pick(name: str, default: str | None = None) -> str | None:
            flag = getattr(args, name, None)
            return flag if flag is not None else cfg.get(name, default)

        def pick_int(name: str, default: str | None = None) -> int | None:
            """The value as an integer; None if it is unset or empty and has no default."""
            text = pick(name, default)
            if not text and default is None:
                return None
            return parse_int(text, name)

        self.mode = pick("mode", "static")
        if self.mode not in ("static", "dynamic"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        policy_text = pick("policy")
        if not policy_text:
            raise ConfigError("a policy is required")
        self.policy = parse_policy(policy_text)
        self.snapshot = pick("snapshot")
        self.transactions = pick("transactions")
        if not self.snapshot or not self.transactions:
            raise ConfigError("snapshot and transactions files are required")
        self.link_changes = pick("link_changes")
        self.out = pick("out", ".")
        self.trees = _parse_trees(pick("trees", "3"))
        self.attempts = pick_int("attempts", "2")
        self.epoch = pick_int("epoch", "1000")
        tl = pick("tl")
        self.tl = parse_credit(tl) if tl else None
        self.landmarks = pick("landmarks", "degree")
        self.runs = pick_int("runs", "1")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        self.seed = pick_int("seed", "1")
        limit = sys.get_int_max_str_digits()  # 0: no limit
        if limit and self.seed + self.runs - 1 >= 10**limit:
            raise ConfigError(f"seed + runs - 1 has more than {limit} digits")
        self.sample = pick_int("sample")
        feasible = pick("feasible_only", "false")
        self.feasible_only = _parse_bool(feasible)
        addr = pick("addr_overhead", "true")
        self.addr_overhead = _parse_bool(addr)

    def params(self, trees: int, run: int) -> SimParams:
        """Simulation parameters of one run of one tree count."""
        return SimParams(
            trees=trees, attempts=self.attempts, epoch=self.epoch, tl=self.tl,
            landmark_mode=self.landmarks, seed=self.seed + run,
            addr_overhead=self.addr_overhead,
        )

    def fingerprint(self, inputs) -> str:
        """Hash of the input texts, one after another, and the run options;
        `inputs` is a sha256 that has been fed the texts."""
        config = (
            f"mode={self.mode};attempts={self.attempts};epoch={self.epoch};"
            f"tl={self.tl};landmarks={self.landmarks};runs={self.runs};"
            f"seed={self.seed};sample={self.sample};feasible_only={self.feasible_only};"
            f"addr_overhead={self.addr_overhead}"
        )
        inputs.update(config.encode())
        return inputs.hexdigest()[:16]

    def config_line(self) -> str:
        parts = [
            f"mode={self.mode}", f"policy={self.policy.label}",
            f"trees={','.join(map(str, self.trees))}", f"attempts={self.attempts}",
            f"epoch={self.epoch}", f"tl={self.tl if self.tl is not None else 'auto'}",
            f"landmarks={self.landmarks}", f"runs={self.runs}", f"seed={self.seed}",
            f"sample={self.sample}", f"feasible_only={self.feasible_only}",
            f"addr_overhead={self.addr_overhead}",
        ]
        return "; ".join(parts)


def _slug(label: str) -> str:
    return label.lower().replace("-", "_").replace("@", "_")


def _tx_csv(metrics: RunMetrics) -> str:
    lines = ["index,time,success,attempts,messages,hop_delay,mean_path_len"]
    for t in metrics.transactions:
        lines.append(
            f"{t.index},{format_credit(t.time)},{int(t.success)},{t.attempts},"
            f"{t.messages},{t.hop_delay},{t.mean_path_length:.6f}"
        )
    return "\n".join(lines) + "\n"


def _epoch_csv(metrics: RunMetrics) -> str:
    lines = ["epoch,transactions,successes,success_ratio,stab_messages"]
    for e in metrics.epochs:
        lines.append(
            f"{e.epoch},{e.transactions},{e.successes},{e.success_ratio:.6f},"
            f"{e.stabilization_messages}"
        )
    return "\n".join(lines) + "\n"


def _summary_rows(label: str, runs: list[RunMetrics]) -> str:
    summaries = [m.summary() for m in runs]
    cells = [label]
    means = []
    sds = []
    for key in SUMMARY_METRICS:
        values = [s[key] for s in summaries]
        mean = statistics.fmean(values)
        sd = statistics.stdev(values) if len(values) > 1 else 0.0
        means.append(f"{mean:.6f}")
        sds.append(f"{sd:.6f}")
    return ",".join(cells + means + sds)


def cmd_run(args: argparse.Namespace) -> int:
    """`pbtsim run`, with the cyclic garbage collector paused throughout.

    Set-up builds hundreds of thousands of long-lived containers (links,
    neighbor lists, tree coordinates), and each full collection walks all of
    them again while finding nothing to free; at crawl size (67k nodes) that
    was about a fifth of set-up time. Reference counting still frees
    everything else, because the simulator makes no reference cycles that
    grow with its input (a collection after a paused run finds the same few
    hundred objects on every workload), and
    `tests/test_cli.py::test_run_garbage_does_not_grow_with_payments` guards
    that. Pausing set-up alone would move the collections into the engine.
    The caller's collector setting is restored on the way out, also when
    the run fails.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(args)
    finally:
        if enabled:
            gc.enable()


def _run(args: argparse.Namespace) -> int:
    opts = _RunOptions(args)
    inputs = hashlib.sha256()

    def read(path: str) -> str:
        text = _read_text(path)
        inputs.update(text.encode())
        return text

    # One id table for the three files, so each node id is one object in
    # the graph, the pool and the changes. Each text goes straight to its
    # parser and is freed when the parser returns, so the snapshot text is
    # gone before the graph is built, and the parsed snapshot is freed when
    # `build_graph` returns. The id table is dropped once the last file is
    # parsed; only the graph, the pool and the changes stay.
    ids: dict = {}
    g = build_graph(parse_snapshot(read(opts.snapshot), ids=ids))
    pool = parse_transactions(read(opts.transactions), ids=ids)
    changes = parse_link_changes(read(opts.link_changes), reject_self_links=True, ids=ids) \
        if opts.link_changes else []
    del ids
    fingerprint = opts.fingerprint(inputs)

    if opts.feasible_only:
        pool = [t for t in pool if t.src in g.nodes and t.dst in g.nodes
                and flow_feasible(g, t.src, t.dst, t.value)]
        if not pool:
            raise ConfigError("no max-flow-feasible transactions in the pool")
    if opts.sample and not pool:
        raise ConfigError("cannot sample from an empty transaction pool")
    if opts.mode == "static" and (not pool or opts.sample == 0):
        raise ConfigError("static mode needs a nonempty transaction list")
    # Every count of the sweep is >= 1, so the first one validates them all.
    lo, hi = opts.trees[0], opts.trees[-1]
    opts.params(lo, 0).validate()
    # FF builds no trees and ignores a single count, but a sweep is bounded
    # for every policy: its counts label the summary rows and the config line.
    n = len(g.nodes)
    if hi > n and (opts.policy.path_rule != "FF" or hi > lo):
        raise ConfigError(f"cannot select {max(lo, n + 1)} landmarks from {n} nodes")

    _make_dir(opts.out)
    summary_lines = [
        f"# fingerprint={fingerprint}",
        f"# config: {opts.config_line()}",
        "# dispersion=sample standard deviation over runs",
        "policy," + ",".join(SUMMARY_METRICS) + ","
        + ",".join(f"{m}_sd" for m in SUMMARY_METRICS),
    ]

    for trees in opts.trees:
        label = opts.policy.label if len(opts.trees) == 1 else f"{opts.policy.label}@L{trees}"
        run_metrics: list[RunMetrics] = []
        for r in range(opts.runs):
            params = opts.params(trees, r)
            txs = pool
            if opts.sample is not None:
                picker = random.Random(opts.seed + r)
                txs = [pool[picker.randrange(len(pool))] for _ in range(opts.sample)]
            if opts.mode == "static":
                metrics = run_static(g, txs, opts.policy, params)
            else:
                events: list[Event] = sorted(changes + txs, key=lambda e: e.time)
                metrics = run_dynamic(g, events, opts.policy, params)
            run_metrics.append(metrics)
            slug = _slug(label)
            _atomic_write(os.path.join(opts.out, f"{slug}_run{r}_transactions.csv"), _tx_csv(metrics))
            _atomic_write(os.path.join(opts.out, f"{slug}_run{r}_epochs.csv"), _epoch_csv(metrics))
        summary_lines.append(_summary_rows(label, run_metrics))

    summary_path = os.path.join(opts.out, "summary.csv")
    _atomic_write(summary_path, "\n".join(summary_lines) + "\n")
    print(f"wrote {summary_path}")
    return 0


# ---- compare ------------------------------------------------------------------


def _parse_summary(path: str) -> tuple[str, list[tuple[str, list[float]]]]:
    """The fingerprint and the (label, means then deviations) data rows of a summary file."""
    fingerprint = None
    rows = []
    header_seen = False
    width = 1 + 2 * len(SUMMARY_METRICS)
    for i, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# fingerprint="):
                fingerprint = line.split("=", 1)[1]
            continue
        if not header_seen:
            header_seen = True  # column header
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"{path}: expected {width} cells, got {len(cells)}", i)
        try:
            rows.append((cells[0], [float(cell) for cell in cells[1:]]))
        except ValueError:
            raise ParseError(f"{path}: non-numeric cell in {line!r}", i) from None
    if fingerprint is None or not rows:
        raise ConfigError(f"{path} is not a summary file")
    return fingerprint, rows


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.summaries) < 2:
        raise ConfigError("compare needs at least two summary files")
    parsed = [_parse_summary(p) for p in args.summaries]
    fingerprints = {fp for fp, _ in parsed}
    if len(fingerprints) != 1:
        raise ConfigError(
            "workload fingerprints differ; refusing to compare: "
            + ", ".join(sorted(fingerprints))
        )
    lines = ["policy," + ",".join(SUMMARY_METRICS)]
    for _, rows in parsed:
        for label, values in rows:
            cells = []
            for j in range(len(SUMMARY_METRICS)):
                mean = values[j]
                sd = values[len(SUMMARY_METRICS) + j]
                cells.append(f"{mean:.4f}±{sd:.4f}")
            lines.append(",".join([label] + cells))
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.out:
        _atomic_write(args.out, table)
    return 0


# ---- generate / preprocess -------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    def parse_range(text: str) -> tuple[float, float]:
        lo, _, hi = text.partition(":")
        try:
            return float(lo), float(hi)
        except ValueError:
            raise ConfigError(f"bad range {text!r}") from None

    snapshot, txs = generate_synthetic(
        args.nodes,
        model=args.model,
        tx_count=args.tx_count,
        seed=args.seed,
        m=args.m,
        k=args.k,
        rewire_p=args.rewire_p,
        weight_range=parse_range(args.weight_range),
        value_range=parse_range(args.value_range),
    )
    _atomic_write(args.snapshot_out, serialize_snapshot(snapshot))
    _atomic_write(args.transactions_out, serialize_transactions(txs))
    print(f"wrote {args.snapshot_out} and {args.transactions_out}")
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    ids: dict = {}  # one id table for the three files, as in `run`
    snapshot = parse_snapshot(_read_text(args.snapshot), ids=ids)
    txs = parse_transactions(_read_text(args.transactions), ids=ids)
    changes = parse_link_changes(_read_text(args.link_changes), ids=ids) if args.link_changes else []
    result = preprocess(snapshot, txs, changes)
    _make_dir(args.out_dir)
    _atomic_write(os.path.join(args.out_dir, "snapshot.csv"), serialize_snapshot(result.snapshot))
    _atomic_write(os.path.join(args.out_dir, "transactions.csv"), serialize_transactions(result.transactions))
    _atomic_write(os.path.join(args.out_dir, "link_changes.csv"), serialize_link_changes(result.link_changes))
    report_text = format_report(result.report)
    _atomic_write(os.path.join(args.out_dir, "report.txt"), report_text)
    print(report_text, end="")
    return 0


# ---- entry point ------------------------------------------------------------------


def _flag_int(text: str) -> int:
    """argparse type of the integer flags: parse_int, reported as a usage error."""
    try:
        return parse_int(text, "value")
    except ParseError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pbtsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a workload under one policy")
    run.add_argument("--config", help="key=value config file; flags override")
    run.add_argument("--mode", choices=("static", "dynamic"))
    run.add_argument("--policy", help="e.g. GE-RAND-OND, LM-MUL-PER, TO-SW, FF")
    run.add_argument("--snapshot")
    run.add_argument("--transactions")
    run.add_argument("--link-changes", dest="link_changes")
    run.add_argument("--out")
    run.add_argument("--trees", help="tree count, or a sweep like 1..7")
    run.add_argument("--attempts")
    run.add_argument("--epoch")
    run.add_argument("--tl")
    run.add_argument("--landmarks", choices=("degree", "random"))
    run.add_argument("--runs")
    run.add_argument("--seed")
    run.add_argument("--sample", help="transactions sampled per run")
    run.add_argument("--feasible-only", dest="feasible_only", action="store_const", const="true",
                     help="restrict the pool to max-flow-feasible transactions")
    run.set_defaults(func=cmd_run)

    cmp_ = sub.add_parser("compare", help="merge summaries into one table")
    cmp_.add_argument("summaries", nargs="*")
    cmp_.add_argument("--out")
    cmp_.set_defaults(func=cmd_compare)

    gen = sub.add_parser("generate", help="write a synthetic workload")
    gen.add_argument("--nodes", type=_flag_int, required=True)
    gen.add_argument("--model", choices=("scale-free", "small-world"), default="scale-free")
    gen.add_argument("--tx-count", dest="tx_count", type=_flag_int, default=0)
    gen.add_argument("--seed", type=_flag_int, default=0)
    gen.add_argument("--m", type=_flag_int, default=2)
    gen.add_argument("--k", type=_flag_int, default=4)
    gen.add_argument("--rewire-p", dest="rewire_p", type=float, default=0.1)
    gen.add_argument("--weight-range", dest="weight_range", default="0.5:500")
    gen.add_argument("--value-range", dest="value_range", default="1:100")
    gen.add_argument("--snapshot-out", dest="snapshot_out", required=True)
    gen.add_argument("--transactions-out", dest="transactions_out", required=True)
    gen.set_defaults(func=cmd_generate)

    pre = sub.add_parser("preprocess", help="apply the dataset cleaning rules")
    pre.add_argument("--snapshot", required=True)
    pre.add_argument("--transactions", required=True)
    pre.add_argument("--link-changes", dest="link_changes")
    pre.add_argument("--out-dir", dest="out_dir", required=True)
    pre.set_defaults(func=cmd_preprocess)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
