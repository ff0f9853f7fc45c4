"""Seeded input generator for the benchmark, independent of pbtsim.

It writes the three CSV formats `pbtsim run` reads (snapshot, transactions,
link changes). It is kept apart from `pbtsim.workload.generate_synthetic`
so that no change to the program can change the benchmark's inputs.

Graph model: preferential attachment with triadic closure (Holme-Kim).
Each new node draws `m` distinct targets; after a preferential pick the
next target is, with probability `triad_p`, a neighbour of that pick.
A share `one_way` of the attachments becomes a single credit line in a
random direction, the rest a pair of lines. Weights and payment values
are log-uniform; payment endpoints are drawn in proportion to degree.
"""

from __future__ import annotations

import math
import random

# The desk settings of the program's acceptance tests (`DESK` in
# tests/test_acceptance.py); the crawl-size graph keeps them except m.
DESK = dict(n=1000, m=5, triad_p=0.4, one_way=0.15, weight=(0.3, 1000.0), value=(0.2, 15.0))
CRAWL = dict(DESK, n=67_149, m=3)

SECOND = 10**6  # one time unit of the CSV formats, in micro-units


def micro(x: float) -> int:
    return max(1, round(x * 10**6))


def fmt(v: int) -> str:
    """Micro-units as a canonical decimal with at most six fractional digits."""
    whole, frac = divmod(v, 10**6)
    return f"{whole}.{frac:06d}".rstrip("0").rstrip(".") if frac else str(whole)


def log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return micro(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def graph(seed: int, n: int, m: int, triad_p: float, one_way: float,
          weight: tuple[float, float], **_) -> tuple[dict, list[int]]:
    """Directed credit lines {(u, v): micro-units} and the degree-weighted endpoint list."""
    rng = random.Random(f"graph:{seed}")
    adj: list[list[int]] = [[] for _ in range(n)]
    ends: list[int] = []
    pairs: list[tuple[int, int]] = []

    def link(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)
        ends.extend((a, b))
        pairs.append((a, b))

    for v in range(1, m + 1):  # a small path seeds the process
        link(v, v - 1)
    for v in range(m + 1, n):
        chosen: list[int] = []
        last = -1
        while len(chosen) < m:
            if last >= 0 and rng.random() < triad_p:
                cand = adj[last][rng.randrange(len(adj[last]))]
            else:
                cand = ends[rng.randrange(len(ends))]
                last = cand
            if cand != v and cand not in chosen:
                chosen.append(cand)
        for t in chosen:
            link(v, t)
    lines: dict[tuple[int, int], int] = {}
    for a, b in pairs:
        if rng.random() < one_way:
            if rng.random() < 0.5:
                a, b = b, a
            lines[(a, b)] = log_uniform(rng, *weight)
        else:
            lines[(a, b)] = log_uniform(rng, *weight)
            lines[(b, a)] = log_uniform(rng, *weight)
    return lines, ends


def transactions(seed: int, ends: list[int], count: int,
                 value: tuple[float, float], **_) -> list[tuple[int, int, int, int]]:
    """(time, value, src, dst) rows, one per second, distinct endpoints."""
    rng = random.Random(f"transactions:{seed}")
    rows = []
    for i in range(count):
        src = ends[rng.randrange(len(ends))]
        dst = src
        while dst == src:
            dst = ends[rng.randrange(len(ends))]
        rows.append((i * SECOND, log_uniform(rng, *value), src, dst))
    return rows


def churn(seed: int, lines: dict, ends: list[int], tx_count: int, per_tx: int, n: int,
          weight: tuple[float, float], **_) -> list[tuple[int, int, int, int]]:
    """(time, u, v, new_weight) rows: `per_tx` link changes between consecutive payments.

    Each change is one of: removing a present credit line (re-created at its
    old weight 5-50 payments later), setting a present line to a new weight,
    or a node joining with a pair of lines to a degree-weighted anchor.
    """
    rng = random.Random(f"churn:{seed}")
    present = dict(lines)
    keys = list(lines)
    restore: dict[int, list[tuple[int, int, int]]] = {}
    joined = 0
    rows = []
    for i in range(tx_count):
        base = i * SECOND
        due = restore.pop(i, [])
        for j in range(per_tx):
            t = base + (j + 1) * SECOND // (per_tx + 2)
            roll = rng.random()
            if roll < 0.55:
                u, v = keys[rng.randrange(len(keys))]
                if present[(u, v)] == 0:
                    continue
                rows.append((t, u, v, 0))
                restore.setdefault(i + rng.randint(5, 50), []).append((u, v, present[(u, v)]))
                present[(u, v)] = 0
            elif roll < 0.85:
                u, v = keys[rng.randrange(len(keys))]
                if present[(u, v)] == 0:
                    continue
                present[(u, v)] = log_uniform(rng, *weight)
                rows.append((t, u, v, present[(u, v)]))
            else:
                new = n + joined
                joined += 1
                anchor = ends[rng.randrange(len(ends))]
                rows.append((t, anchor, new, log_uniform(rng, *weight)))
                rows.append((t, new, anchor, log_uniform(rng, *weight)))
        t = base + (per_tx + 1) * SECOND // (per_tx + 2)
        for u, v, w in due:
            rows.append((t, u, v, w))
            present[(u, v)] = w
    return rows


def write_snapshot(path: str, lines: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("u,v,weight\n")
        fh.writelines(f"{u},{v},{fmt(w)}\n" for (u, v), w in lines.items())


def write_transactions(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,value,src,dst\n")
        fh.writelines(f"{fmt(t)},{fmt(c)},{s},{d}\n" for t, c, s, d in rows)


def write_changes(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,u,v,new_weight\n")
        fh.writelines(f"{fmt(t)},{u},{v},{fmt(w)}\n" for t, u, v, w in rows)
