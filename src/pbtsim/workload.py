"""Workload files: parsing, preprocessing, and synthetic generation.

Three line-oriented CSV formats with headers, UTF-8, decimal amounts with
at most six fractional digits:

    snapshot:     u,v,weight[,limit]
    transactions: time,value,src,dst
    link changes: time,u,v,new_weight

One reader serves all three: `_rows` checks the header and gives each
nonblank row with its line number, requiring the header's field count,
and event files also pass through one check (`_events`) that times
start at 0 and never decrease. A snapshot parses to a `SnapshotFile`
(its records and whether the limit column is present); an event file
parses to a plain list of `TransactionEvent` or `LinkChangeEvent`. Node
ids are nonnegative integers in ASCII digits (`credit.parse_int`),
amounts and times are decimals in ASCII digits (`credit.parse_credit`);
anything else raises `ParseError` with its line. Parsing and
serializing round-trip exactly because amounts live in integer
micro-units and are rendered canonically.

Node ids: one object per node id per command. The three parsers take an
optional id table (`ids`); a command that reads several files passes
them one table, so every field naming the same node, in every file,
parses to the same `int` object, and the graph's adjacency entries, link
keys and event endpoints compare by identity. Only the objects are
shared; the values are those `parse_int` gives, so "7", "07" and " 7"
name one node.

Preprocessing applies the dataset cleaning rules in order: drop invalid
credit arrangements (weight above the granted limit, only checkable when
a limit column is present), drop self-entries, restrict to the giant
component, and drop zero-weight placeholder rows (links that only come
into existence later are represented implicitly; their creation arrives
as a link-change event). Transactions and changes are then restricted to
surviving nodes. The report counts every removal per rule.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from .credit import SCALE, format_credit, parse_credit, parse_int
from .errors import ConfigError, ParseError
from .graph import CreditGraph, NodeId


class LinkRecord(NamedTuple):
    u: NodeId
    v: NodeId
    weight: int
    limit: int | None = None


@dataclass(frozen=True)
class TransactionEvent:
    time: int
    value: int
    src: NodeId
    dst: NodeId


@dataclass(frozen=True)
class LinkChangeEvent:
    time: int
    u: NodeId
    v: NodeId
    new_weight: int


@dataclass
class SnapshotFile:
    records: list[LinkRecord] = field(default_factory=list)
    has_limit: bool = False


# ---- parsing and serialization ------------------------------------------------

_SNAPSHOT_HEADERS = ("u,v,weight", "u,v,weight,limit")
_TRANSACTION_HEADER = "time,value,src,dst"
_LINK_CHANGE_HEADER = "time,u,v,new_weight"


def _rows(text: str, *headers: str) -> tuple[str, Iterator[tuple[int, list[str]]]]:
    """The file's header, which must be one of `headers`, and its rows.

    Rows come as (line number, fields); blank lines are skipped and every
    other row must have as many fields as the header.
    """
    lines = text.splitlines()
    header = lines[0].strip() if lines else ""
    if header not in headers:
        expected = " or ".join(repr(h) for h in headers)
        raise ParseError(f"expected header {expected}, got {header!r}", 1)
    width = header.count(",") + 1

    def rows() -> Iterator[tuple[int, list[str]]]:
        for line, raw in enumerate(lines[1:], start=2):
            fields = raw.split(",")
            if len(fields) == width:
                yield line, fields
            elif raw.strip():
                raise ParseError(f"expected {width} fields, got {len(fields)}", line)

    return header, rows()


def _events(text: str, header: str) -> Iterator[tuple[int, int, list[str]]]:
    """(line, time, fields) per row of an event file; times start at 0 and never decrease."""
    _, rows = _rows(text, header)
    prev = 0
    for line, fields in rows:
        time = parse_credit(fields[0], line)
        if time < prev:
            raise ParseError("negative time" if time < 0 else "timestamps must be nondecreasing", line)
        prev = time
        yield line, time, fields


def _node_id(ids: dict, text: str, line: int) -> NodeId:
    """The id table's object for a node id field.

    `ids` maps each field text seen, and the canonical text (`str`) of each
    value parsed, to the one object of that value, so "07" and " 7" find
    the object of "7". The text is looked up first, so `parse_int` runs
    once per distinct text; text keys alone keep the table small.
    """
    node = ids.get(text)
    if node is None:
        value = parse_int(text, "node id", line)
        node = ids[text] = ids.setdefault(str(value), value)
    return node


def _file(header: str, lines: Iterable[str]) -> str:
    return "\n".join([header, *lines]) + "\n"


def parse_snapshot(text: str, *, ids: dict | None = None) -> SnapshotFile:
    header, rows = _rows(text, *_SNAPSHOT_HEADERS)
    has_limit = header == _SNAPSHOT_HEADERS[1]
    ids = {} if ids is None else ids
    node = ids.get  # `_node_id`'s lookup, inlined: most node id fields are here
    # LinkRecord's own __new__ is a Python function; tuple's makes the same record.
    record = tuple.__new__
    records = []
    for line, fields in rows:
        u = node(fields[0])
        if u is None:
            u = _node_id(ids, fields[0], line)
        v = node(fields[1])
        if v is None:
            v = _node_id(ids, fields[1], line)
        weight = parse_credit(fields[2], line)
        limit = parse_credit(fields[3], line) if has_limit else None
        if weight < 0 or (limit is not None and limit < 0):
            raise ParseError("negative amount", line)
        records.append(record(LinkRecord, (u, v, weight, limit)))
    return SnapshotFile(records, has_limit)


def serialize_snapshot(snapshot: SnapshotFile) -> str:
    has_limit = snapshot.has_limit
    header = _SNAPSHOT_HEADERS[1] if has_limit else _SNAPSHOT_HEADERS[0]
    return _file(header, (
        f"{r.u},{r.v},{format_credit(r.weight)}"
        + (f",{format_credit(r.limit or 0)}" if has_limit else "")
        for r in snapshot.records))


def parse_transactions(text: str, *, ids: dict | None = None) -> list[TransactionEvent]:
    ids = {} if ids is None else ids
    events = []
    for line, time, fields in _events(text, _TRANSACTION_HEADER):
        value = parse_credit(fields[1], line)
        if value < 0:
            raise ParseError("negative value", line)
        events.append(TransactionEvent(
            time, value, _node_id(ids, fields[2], line), _node_id(ids, fields[3], line)))
    return events


def serialize_transactions(txs: list[TransactionEvent]) -> str:
    return _file(_TRANSACTION_HEADER, (
        f"{format_credit(t.time)},{format_credit(t.value)},{t.src},{t.dst}" for t in txs))


def parse_link_changes(
    text: str, reject_self_links: bool = False, *, ids: dict | None = None
) -> list[LinkChangeEvent]:
    """Parse a link-change file; with reject_self_links a u == v row is an error.

    Raw dataset files may hold self entries for ``preprocess`` to drop (rule
    2); a simulation input may not, since the graph rejects self-links.
    """
    ids = {} if ids is None else ids
    events = []
    for line, time, fields in _events(text, _LINK_CHANGE_HEADER):
        weight = parse_credit(fields[3], line)
        if weight < 0:
            raise ParseError("negative weight", line)
        u = _node_id(ids, fields[1], line)
        v = _node_id(ids, fields[2], line)
        if u == v and reject_self_links:
            raise ParseError(f"self-link {u}->{v}", line)
        events.append(LinkChangeEvent(time, u, v, weight))
    return events


def serialize_link_changes(changes: list[LinkChangeEvent]) -> str:
    return _file(_LINK_CHANGE_HEADER, (
        f"{format_credit(c.time)},{c.u},{c.v},{format_credit(c.new_weight)}" for c in changes))


def build_graph(snapshot: SnapshotFile) -> CreditGraph:
    """Materialize a credit graph by `CreditGraph.from_rows`' row rules: nodes
    in order of first appearance and, per non-self pair, its last positive
    weight (zero rows add only nodes)."""
    return CreditGraph.from_rows(snapshot.records)


# ---- preprocessing ---------------------------------------------------------------


@dataclass
class PreprocessResult:
    snapshot: SnapshotFile
    transactions: list[TransactionEvent]
    link_changes: list[LinkChangeEvent]
    report: dict[str, int]


def format_report(report: dict[str, int]) -> str:
    return "\n".join(f"{k}={v}" for k, v in report.items()) + "\n"


def preprocess(
    snapshot: SnapshotFile,
    transactions: list[TransactionEvent],
    link_changes: list[LinkChangeEvent],
) -> PreprocessResult:
    """Apply the dataset cleaning rules; see the module docstring for order."""
    report: dict[str, int] = {}

    # Rule 1: invalid credit arrangements (and degenerate self-links).
    rows = []
    invalid = 0
    for r in snapshot.records:
        if r.u == r.v or (r.limit is not None and r.weight > r.limit):
            invalid += 1
        else:
            rows.append(r)
    report["invalid_links_removed"] = invalid

    # Rule 2: self-entries in the event lists.
    txs = [t for t in transactions if t.src != t.dst]
    report["self_transactions_removed"] = len(transactions) - len(txs)
    changes = [c for c in link_changes if c.u != c.v]
    report["self_link_changes_removed"] = len(link_changes) - len(changes)

    # Rule 3: giant component over rows that carry weight in some direction
    # (zero-weight rows add nodes but no links); the first largest wins.
    g = build_graph(SnapshotFile(rows))
    giant = max(g.components(), key=len, default=set())
    kept_rows = [r for r in rows if r.u in giant and r.v in giant]
    report["nongiant_nodes_removed"] = len(g.nodes) - len(giant)
    report["nongiant_links_removed"] = len(rows) - len(kept_rows)

    # Rule 4: zero-weight placeholder rows (future links) are implicit.
    final_rows = [r for r in kept_rows if r.weight > 0]
    report["zero_links_removed"] = len(kept_rows) - len(final_rows)

    final_txs = [t for t in txs if t.src in giant and t.dst in giant]
    report["transactions_outside_removed"] = len(txs) - len(final_txs)
    final_changes = [c for c in changes if c.u in giant and c.v in giant]
    report["link_changes_outside_removed"] = len(changes) - len(final_changes)

    report["nodes_kept"] = len(giant)
    report["links_kept"] = len(final_rows)
    report["transactions_kept"] = len(final_txs)
    report["link_changes_kept"] = len(final_changes)

    return PreprocessResult(
        SnapshotFile(final_rows, snapshot.has_limit), final_txs, final_changes, report
    )


# ---- synthetic generation ---------------------------------------------------------


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    """Micro-unit amount log-uniform on [lo, hi] whole units."""
    x = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return max(1, round(x * 10**6))


def _scale_free_edges(
    n: int, m: int, rng: random.Random, triad_p: float = 0.0
) -> list[tuple[int, int]]:
    """Preferential attachment: each new node links to m distinct targets.

    With triad_p > 0, after each preferential pick the next link closes a
    triangle through a neighbor of that pick with this probability, which
    keeps the degree distribution scale-free while adding the local
    clustering real credit networks show.
    """
    edges: list[tuple[int, int]] = []
    endpoints: list[int] = []
    neighbors: dict[int, list[int]] = {}

    def connect(a: int, b: int) -> None:
        edges.append((a, b))
        endpoints.extend((a, b))
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)

    start = min(m + 1, n)
    for v in range(1, start):
        connect(v, v - 1)
    for v in range(start, n):
        targets: set[int] = set()
        last_target: int | None = None
        while len(targets) < m:
            candidate: int | None = None
            if last_target is not None and rng.random() < triad_p:
                hood = neighbors[last_target]
                pick = hood[rng.randrange(len(hood))]
                if pick != v and pick not in targets:
                    candidate = pick
            if candidate is None:
                pick = endpoints[rng.randrange(len(endpoints))]
                if pick == v or pick in targets:
                    continue
                candidate = pick
            targets.add(candidate)
            last_target = candidate
        for t in sorted(targets):
            connect(v, t)
    return edges


def _small_world_edges(n: int, k: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Ring lattice with k/2 successors per node, each edge rewired with prob p."""
    existing: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for v in range(n):
        for j in range(1, k // 2 + 1):
            w = (v + j) % n
            if v == w:
                continue
            key = (min(v, w), max(v, w))
            if key not in existing:
                existing.add(key)
                edges.append((v, w))
    out: list[tuple[int, int]] = []
    for v, w in edges:
        if rng.random() < p:
            for _ in range(10):
                cand = rng.randrange(n)
                key = (min(v, cand), max(v, cand))
                if cand != v and key not in existing:
                    existing.discard((min(v, w), max(v, w)))
                    existing.add(key)
                    w = cand
                    break
        out.append((v, w))
    return out


def generate_synthetic(
    n: int,
    model: str = "scale-free",
    tx_count: int = 0,
    seed: int = 0,
    *,
    m: int = 2,
    k: int = 4,
    rewire_p: float = 0.1,
    triad_p: float = 0.0,
    weight_range: tuple[float, float] = (0.5, 500.0),
    value_range: tuple[float, float] = (1.0, 100.0),
    unidirectional_fraction: float = 0.0,
) -> tuple[SnapshotFile, list[TransactionEvent]]:
    """Deterministic desk-scale workload.

    By default every undirected attachment becomes a bidirectional link
    pair with independently drawn log-uniform weights. Credit networks
    also carry one-way credit lines; set unidirectional_fraction to make
    that share of attachments single-direction, which exercises the
    two-phase tree construction. Transaction endpoints are sampled
    proportional to degree; values are log-uniform.
    """
    if n < 2:
        raise ConfigError("need at least two nodes")
    if model not in ("scale-free", "small-world"):
        raise ConfigError(f"unknown model {model!r}")
    # Without links there are no transaction endpoints to draw.
    if model == "scale-free" and m < 1:
        raise ConfigError("scale-free model needs m >= 1")
    if model == "small-world" and k < 2:
        raise ConfigError("small-world model needs k >= 2")
    if tx_count < 0:
        raise ConfigError("tx_count must be >= 0")
    # Bounds are drawn in micro-units, so they must stay finite when scaled.
    if not all(math.isfinite(b * SCALE) for b in (*weight_range, *value_range)):
        raise ConfigError("ranges must be finite in micro-units")
    if weight_range[0] <= 0 or value_range[0] <= 0 or weight_range[0] > weight_range[1] \
            or value_range[0] > value_range[1]:
        raise ConfigError("ranges must be positive and ordered")
    if not 0.0 <= unidirectional_fraction <= 1.0:
        raise ConfigError("unidirectional_fraction must be in [0, 1]")
    if not 0.0 <= triad_p <= 1.0:
        raise ConfigError("triad_p must be in [0, 1]")
    if not 0.0 <= rewire_p <= 1.0:
        raise ConfigError("rewire_p must be in [0, 1]")
    rng = random.Random(seed)
    if model == "scale-free":
        edges = _scale_free_edges(n, m, rng, triad_p)
    else:
        edges = _small_world_edges(n, k, rewire_p, rng)
    records = []
    endpoints: list[int] = []
    for a, b in edges:
        if rng.random() < unidirectional_fraction:
            if rng.random() < 0.5:
                a, b = b, a
            records.append(LinkRecord(a, b, _log_uniform(rng, *weight_range)))
        else:
            records.append(LinkRecord(a, b, _log_uniform(rng, *weight_range)))
            records.append(LinkRecord(b, a, _log_uniform(rng, *weight_range)))
        endpoints += [a, b]
    txs = []
    for i in range(tx_count):
        src = endpoints[rng.randrange(len(endpoints))]
        dst = endpoints[rng.randrange(len(endpoints))]
        while dst == src:
            dst = endpoints[rng.randrange(len(endpoints))]
        txs.append(TransactionEvent(i * SCALE, _log_uniform(rng, *value_range), src, dst))
    return SnapshotFile(records), txs
