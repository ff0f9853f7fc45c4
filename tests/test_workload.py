import math

import pytest
from hypothesis import given, settings, strategies as st

import pbtsim.cli as cli
from pbtsim.credit import credit, format_credit
from pbtsim.errors import ConfigError, ParseError
from pbtsim.workload import (
    LinkChangeEvent,
    LinkRecord,
    SnapshotFile,
    TransactionEvent,
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

SNAP = "u,v,weight\n0,1,10\n1,0,2.5\n2,3,0.000001\n"
TXS = "time,value,src,dst\n0,1.5,0,1\n10,2,1,3\n10,3,2,2\n"
CHANGES = "time,u,v,new_weight\n5,0,1,0\n7,4,4,3\n"


def test_snapshot_round_trip():
    f = parse_snapshot(SNAP)
    assert f.records[1] == LinkRecord(1, 0, 2_500_000)
    assert serialize_snapshot(f) == SNAP
    assert parse_snapshot(serialize_snapshot(f)) == f


def test_snapshot_with_limit_column():
    text = "u,v,weight,limit\n0,1,5,10\n"
    f = parse_snapshot(text)
    assert f.has_limit and f.records[0].limit == credit(10)
    assert serialize_snapshot(f) == text


def test_transactions_round_trip():
    f = parse_transactions(TXS)
    assert f[0] == TransactionEvent(0, 1_500_000, 0, 1)
    assert serialize_transactions(f) == TXS
    assert parse_transactions(serialize_transactions(f)) == f


def test_link_changes_round_trip():
    f = parse_link_changes(CHANGES)
    assert f[0] == LinkChangeEvent(5_000_000, 0, 1, 0)
    assert serialize_link_changes(f) == CHANGES
    assert parse_link_changes(serialize_link_changes(f)) == f


@pytest.mark.parametrize("text,error_line", [
    ("u,v\n", 1),
    ("u,v,weight\n0,1\n", 2),
    ("u,v,weight\n0,x,1\n", 2),
    ("u,v,weight\n0,1,1.1234567\n", 2),
    ("u,v,weight\n0,1,-1\n", 2),
    # str.isdigit() holds for these, but only ASCII digits are node ids and amounts
    ("u,v,weight\n0,1,5\n1,²,5\n", 3),
    ("u,v,weight\n0,1,5\n1,2,²\n", 3),
    ("u,v,weight\n0,1,5\n1,٢,5\n", 3),
])
def test_snapshot_parse_errors_carry_line(text, error_line):
    with pytest.raises(ParseError) as err:
        parse_snapshot(text)
    assert err.value.line == error_line


NODE_IDS = st.integers(0, 10**9)
AMOUNTS = st.integers(0, 10**15)  # micro-units: up to 6 fractional digits


def up_to_12(record, *fields):
    return st.lists(st.builds(record, *fields), max_size=12)


def by_time(events):
    return sorted(events, key=lambda e: e.time)


# Each format: parse, serialize, random records, the node-id columns, and
# whether column 0 is a time that must never decrease.
FORMATS = {
    "snapshot": (
        parse_snapshot, serialize_snapshot,
        # No limit column, so no limit: st.builds would fill the default.
        st.builds(SnapshotFile, up_to_12(LinkRecord, NODE_IDS, NODE_IDS, AMOUNTS, st.none())),
        (0, 1), False),
    "snapshot-limit": (
        parse_snapshot, serialize_snapshot,
        st.builds(SnapshotFile, up_to_12(LinkRecord, NODE_IDS, NODE_IDS, AMOUNTS, AMOUNTS),
                  st.just(True)),
        (0, 1), False),
    "transactions": (
        parse_transactions, serialize_transactions,
        up_to_12(TransactionEvent, AMOUNTS, AMOUNTS, NODE_IDS, NODE_IDS).map(by_time),
        (2, 3), True),
    "link-changes": (
        parse_link_changes, serialize_link_changes,
        up_to_12(LinkChangeEvent, AMOUNTS, NODE_IDS, NODE_IDS, AMOUNTS).map(by_time),
        (1, 2), True),
}


@pytest.mark.parametrize("kind", FORMATS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reader_round_trips_and_reports_the_corrupted_line(kind, data):
    """parse(serialize(records)) == records with blank lines anywhere after the
    header, and one corrupted row raises ParseError at that row's line."""
    parse, serialize, records_of, node_columns, timed = FORMATS[kind]
    records = data.draw(records_of)
    header, *rows = serialize(records).splitlines()
    blanks = st.lists(st.sampled_from(["", " ", "\t"]), max_size=2)
    lines, row_lines = [header], []
    for row in rows:
        lines += data.draw(blanks)
        lines.append(row)
        row_lines.append(len(lines))
    lines += data.draw(blanks)
    assert parse("\n".join(lines) + "\n") == records
    if not rows:
        return

    i = data.draw(st.integers(0, len(rows) - 1))
    fields = rows[i].split(",")
    corruptions = ["width", "digit", "time"] if timed else ["width", "digit"]
    corruption = data.draw(st.sampled_from(corruptions))
    if corruption == "width":
        fields = fields[:-1] if data.draw(st.booleans()) else fields + ["1"]
    elif corruption == "digit":
        column = data.draw(st.sampled_from(node_columns))
        k = data.draw(st.integers(0, len(fields[column])))
        fields[column] = fields[column][:k] + data.draw(st.sampled_from("²٢")) + fields[column][k:]
    else:
        fields[0] = format_credit((records[i - 1].time if i else 0) - 1)
    lines[row_lines[i] - 1] = ",".join(fields)
    with pytest.raises(ParseError) as err:
        parse("\n".join(lines) + "\n")
    assert err.value.line == row_lines[i]


def test_event_files_require_nondecreasing_time():
    with pytest.raises(ParseError):
        parse_transactions("time,value,src,dst\n5,1,0,1\n4,1,1,0\n")
    with pytest.raises(ParseError):
        parse_link_changes("time,u,v,new_weight\n5,0,1,1\n4,0,1,2\n")


def test_build_graph_skips_zero_and_self_rows():
    g = build_graph(parse_snapshot("u,v,weight\n0,1,5\n2,3,0\n4,4,7\n"))
    assert g.weight(0, 1) == credit(5)
    assert g.link_count() == 1
    assert {0, 1, 2, 3, 4} <= g.nodes


# ---- one object per node id ------------------------------------------------------------

# Ids above 256, since CPython shares the objects of small ints anyway; some
# are written with a leading zero or space.
RING = [1000 + i for i in range(12)]
RING_SNAP = "u,v,weight\n" + "".join(
    f"{u},{v},50\n{v},{u},40\n" for u, v in zip(RING, RING[1:] + RING[:1])
) + "01003,1009,30\n 1009,1003,30\n"
RING_TXS = "time,value,src,dst\n" + "".join(
    f"{i},1,{RING[i]},{RING[(i + 5) % 12]}\n" for i in range(12)) + "20,1,2000,1004\n"
RING_CHANGES = "time,u,v,new_weight\n2,1000,1001,0\n3,2000,1000,60\n4,1000,2000,60\n5,01005,1006,70\n"


def parsed_by_run(tmp_path, monkeypatch):
    """The graph and the events `pbtsim run` hands the engine for the ring workload."""
    paths = []
    for name, text in (("s", RING_SNAP), ("t", RING_TXS), ("c", RING_CHANGES)):
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_text(text)
    seen = []
    run_dynamic = cli.run_dynamic

    def capture(g, events, policy, params):
        seen.append((g, list(events)))
        return run_dynamic(g, events, policy, params)

    monkeypatch.setattr(cli, "run_dynamic", capture)
    assert cli.main([
        "run", "--mode", "dynamic", "--policy", "GE-RAND-OND", "--trees", "2",
        "--snapshot", str(paths[0]), "--transactions", str(paths[1]),
        "--link-changes", str(paths[2]), "--out", str(tmp_path / "out"),
    ]) == 0
    [(g, events)] = seen
    return g, events


def test_run_reads_each_node_id_as_one_object(tmp_path, monkeypatch):
    g, events = parsed_by_run(tmp_path, monkeypatch)
    node = {v: v for v in g._adj}
    assert list(node) == RING
    for ns in g._adj.values():
        assert all(v is node[v] for v in ns)
    assert len(g._links) == 26
    for u, v in g._links:
        assert u is node[u] and v is node[v]
    ends = [end for e in events
            for end in ((e.src, e.dst) if isinstance(e, TransactionEvent) else (e.u, e.v))]
    assert len(ends) == 2 * (13 + 4) and 2000 in ends
    # A node that only joins later has one object too, the first one read.
    for end in ends:
        assert end is node.setdefault(end, end)


def test_id_table_changes_no_value():
    ids = {}
    parses = [(parse_snapshot, RING_SNAP), (parse_transactions, RING_TXS),
              (parse_link_changes, RING_CHANGES)]
    shared = [parse(text, ids=ids) for parse, text in parses]
    assert shared == [parse(text) for parse, text in parses]
    # a second read, through a table that holds every id already
    assert [parse(text, ids=ids) for parse, text in parses] == shared


@pytest.mark.parametrize("value", ["7", "70000"])
def test_id_texts_of_one_value_give_one_object(value):
    ids = {}
    [a, b] = parse_transactions(
        f"time,value,src,dst\n0,1,{value},0{value}\n1,1, {value},8\n", ids=ids)
    assert a.src is a.dst is b.src
    [c] = parse_link_changes(f"time,u,v,new_weight\n0,0{value},9,1\n", ids=ids)
    assert c.u is a.src and c.u == int(value)


@pytest.mark.parametrize("parse,text,error_line", [
    (parse_snapshot, "u,v,weight\n1000,1001,5\n1000,x,5\n", 3),
    (parse_transactions, "time,value,src,dst\n0,1,1000,1001\n1,1,1000,1٠01\n", 3),
    (parse_link_changes, "time,u,v,new_weight\n0,1000,1001,1\n1,²,1000,1\n", 3),
])
def test_bad_id_with_a_table_raises_at_its_line(parse, text, error_line):
    ids = {}
    parse_snapshot(RING_SNAP, ids=ids)
    with pytest.raises(ParseError) as err:
        parse(text, ids=ids)
    assert err.value.line == error_line


# ---- preprocessing ------------------------------------------------------------------


def full_fixture():
    snapshot = SnapshotFile(
        records=[
            LinkRecord(0, 1, credit(5), credit(10)),
            LinkRecord(1, 0, credit(5), credit(10)),
            LinkRecord(1, 2, credit(3), credit(10)),
            LinkRecord(2, 9, credit(20), credit(4)),  # invalid: weight > limit
            LinkRecord(3, 3, credit(1), credit(10)),  # self link
            LinkRecord(5, 6, credit(2), credit(10)),  # small component
            LinkRecord(7, 8, 0, credit(10)),          # zero-weight placeholder
        ],
        has_limit=True,
    )
    txs = [
        TransactionEvent(0, credit(1), 0, 2),
        TransactionEvent(1, credit(1), 4, 4),   # self transaction
        TransactionEvent(2, credit(1), 5, 6),   # outside the giant component
        TransactionEvent(3, credit(1), 0, 1),
    ]
    changes = [
        LinkChangeEvent(0, 0, 1, credit(9)),
        LinkChangeEvent(1, 5, 6, 0),            # outside
        LinkChangeEvent(2, 4, 4, credit(2)),    # self entry
    ]
    return snapshot, txs, changes


def test_preprocess_applies_all_rules():
    result = preprocess(*full_fixture())
    r = result.report
    assert r["invalid_links_removed"] == 2          # over-limit + self link
    assert r["self_transactions_removed"] == 1
    assert r["self_link_changes_removed"] == 1
    assert r["nongiant_nodes_removed"] == 4         # {5, 6, 7, 8}
    assert r["zero_links_removed"] == 0             # 7-8 already dropped as non-giant
    assert r["nodes_kept"] == 3
    assert r["links_kept"] == 3
    assert r["transactions_kept"] == 2
    assert r["link_changes_kept"] == 1
    kept_nodes = {x for rec in result.snapshot.records for x in (rec.u, rec.v)}
    assert kept_nodes == {0, 1, 2}


def test_preprocess_zero_rows_in_giant_are_counted():
    snapshot = SnapshotFile([
        LinkRecord(0, 1, credit(5)),
        LinkRecord(1, 0, 0),  # placeholder inside the giant component
    ])
    result = preprocess(snapshot, [], [])
    assert result.report["zero_links_removed"] == 1
    assert result.report["links_kept"] == 1


def test_preprocess_idempotent():
    first = preprocess(*full_fixture())
    second = preprocess(first.snapshot, first.transactions, first.link_changes)
    assert second.snapshot == first.snapshot
    assert second.transactions == first.transactions
    assert second.link_changes == first.link_changes
    removal_keys = [k for k in second.report if k.endswith("_removed")]
    assert all(second.report[k] == 0 for k in removal_keys)


def test_format_report_key_value_block():
    text = format_report({"a": 1, "b": 2})
    assert text == "a=1\nb=2\n"


# ---- synthetic generation --------------------------------------------------------------


def test_generate_minimal_pair():
    snap, _ = generate_synthetic(2, tx_count=0, seed=1)
    assert len(snap.records) == 2  # one bidirectional pair
    assert {(r.u, r.v) for r in snap.records} == {(0, 1), (1, 0)}


def test_generate_deterministic():
    a = generate_synthetic(50, tx_count=100, seed=9)
    b = generate_synthetic(50, tx_count=100, seed=9)
    assert serialize_snapshot(a[0]) == serialize_snapshot(b[0])
    assert serialize_transactions(a[1]) == serialize_transactions(b[1])


def test_generate_connected_for_default_params():
    for n in (10, 37, 120):
        snap, _ = generate_synthetic(n, seed=n)
        g = build_graph(snap)
        assert len(max(g.components(), key=len)) == n


def test_generate_rejects_bad_params():
    with pytest.raises(ConfigError):
        generate_synthetic(1)
    with pytest.raises(ConfigError):
        generate_synthetic(10, model="mesh")
    with pytest.raises(ConfigError):
        generate_synthetic(10, weight_range=(0, 5))
    with pytest.raises(ConfigError):
        generate_synthetic(10, unidirectional_fraction=1.5)
    with pytest.raises(ConfigError):
        generate_synthetic(10, tx_count=5, m=0)
    with pytest.raises(ConfigError):
        generate_synthetic(10, model="small-world", tx_count=5, k=1)
    with pytest.raises(ConfigError):
        generate_synthetic(10, tx_count=-1)
    for bad_range in ((1, math.nan), (1, math.inf), (math.nan, 5), (1, 1e308)):
        with pytest.raises(ConfigError):
            generate_synthetic(10, tx_count=5, value_range=bad_range)
        with pytest.raises(ConfigError):
            generate_synthetic(10, tx_count=5, weight_range=bad_range)
    for rewire_p in (2, -1, math.nan):
        with pytest.raises(ConfigError):
            generate_synthetic(10, model="small-world", rewire_p=rewire_p)


def test_scale_free_tail_heavier_than_small_world():
    """Top-decile degree mass comparison at n=1000."""
    def top_decile_mass(snap, n):
        from collections import Counter
        deg = Counter()
        for r in snap.records:
            deg[r.u] += 1
        degrees = sorted((deg[v] for v in range(n)), reverse=True)
        top = sum(degrees[: n // 10])
        return top / sum(degrees)

    sf, _ = generate_synthetic(1000, model="scale-free", seed=3)
    sw, _ = generate_synthetic(1000, model="small-world", seed=3)
    assert top_decile_mass(sf, 1000) > top_decile_mass(sw, 1000) + 0.1


def test_unidirectional_fraction_produces_single_direction_rows():
    snap, _ = generate_synthetic(200, seed=4, unidirectional_fraction=0.5)
    directed = {(r.u, r.v) for r in snap.records}
    one_way = sum(1 for (u, v) in directed if (v, u) not in directed)
    assert one_way > 0


def test_transactions_have_distinct_endpoints_and_times():
    _, txs = generate_synthetic(50, tx_count=200, seed=5)
    assert len(txs) == 200
    assert all(t.src != t.dst for t in txs)
    times = [t.time for t in txs]
    assert times == sorted(times)
