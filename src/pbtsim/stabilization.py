"""Reacting to link-weight changes with on-demand spanning-tree repair.

A weight change triggers a coordinate reset in three situations per tree:
a new link touches a node without a coordinate; a new bidirectional link
lets a node replace a unidirectional parent link (only when exactly one
endpoint qualifies); or a removed link was a parent link, in which case
the child resets. The reset node and its whole subtree drop coordinates
(one message per graph neighbor per dropped node) and then re-attach
bottom-up from the remaining tree, each announcing its new coordinate to
all neighbors. Nodes that find no eligible parent stay detached and are
retried whenever a later attachment opens a path.

The periodic alternative rebuilds every tree from scratch and is charged
one message per tree per undirected edge; a static run, whose graph never
changes, pays that charge every epoch without rebuilding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .embedding import Embedding, build_embeddings, is_prefix
from .graph import CreditGraph, NodeId


@dataclass
class StabilizationReport:
    """Per-tree accounting for one repair event."""

    tree_index: int
    reset_root: NodeId | None
    nodes_reassigned: int
    messages: int


def choose_parent(
    g: CreditGraph, emb: Embedding, n: NodeId, rng: random.Random
) -> NodeId | None:
    """Pick a new parent for a detached node, or None if it must wait.

    Candidates are attached neighbors whose coordinate does not extend the
    node's previous coordinate (that would re-enter the old subtree and
    risk a cycle). Neighbors with positive weight in both directions are
    preferred; within the preferred class the shortest coordinate wins,
    ties broken uniformly at random.
    """
    prev = emb.prev_coord.get(n)
    bidi: list[NodeId] = []
    uni: list[NodeId] = []
    for cand in g.neighbors(n):
        coord = emb.coord.get(cand)
        if coord is None:
            continue
        if prev is not None and is_prefix(prev, coord):
            continue
        if g.bidirectional(n, cand):
            bidi.append(cand)
        else:
            uni.append(cand)
    pool = bidi if bidi else uni
    if not pool:
        return None
    best = min(len(emb.coord[c]) for c in pool)
    ties = [c for c in pool if len(emb.coord[c]) == best]
    return ties[rng.randrange(len(ties))] if len(ties) > 1 else ties[0]


def _reset_for_tree(
    g: CreditGraph, emb: Embedding, u: NodeId, v: NodeId, old: int, new: int
) -> NodeId | None:
    """Which endpoint (if any) must drop its coordinate in this tree."""
    if old == 0 and new > 0:
        u_set, v_set = emb.attached(u), emb.attached(v)
        if u_set and not v_set:
            return v
        if v_set and not u_set:
            return u
        if u_set and v_set and g.bidirectional(u, v):
            pu, pv = emb.parent.get(u), emb.parent.get(v)
            a1 = pu is not None and not g.bidirectional(u, pu)
            a2 = pv is not None and not g.bidirectional(v, pv)
            # Exactly one endpoint with a weak parent link re-roots onto the
            # new bidirectional connection; when both qualify, neither moves.
            if a1 and not a2:
                return u
            if a2 and not a1:
                return v
    elif old > 0 and new == 0:
        if emb.parent.get(u) == v:
            return u
        if emb.parent.get(v) == u:
            return v
    return None


def _prev_depth_key(emb: Embedding, node: NodeId) -> tuple:
    prev = emb.prev_coord.get(node)
    return (prev is None, len(prev) if prev is not None else 0, node)


def _repair(
    g: CreditGraph, emb: Embedding, reset: NodeId, rng: random.Random
) -> StabilizationReport:
    messages = 0
    if emb.attached(reset):
        dropped = emb.subtree(g, reset)
        for node in dropped:
            emb.detach(node)
            messages += g.degree(node)
    else:
        # Never-attached node: nothing to announce as removed.
        dropped = [reset]

    pending = dict.fromkeys(dropped)
    reassigned = 0
    progress = True
    while progress:
        progress = False
        for node in sorted(pending, key=lambda x: _prev_depth_key(emb, x)):
            parent = choose_parent(g, emb, node, rng)
            if parent is None:
                continue
            emb.attach(node, parent, rng.getrandbits(emb.element_bits))
            messages += g.degree(node)
            reassigned += 1
            progress = True
            del pending[node]
            # A fresh coordinate may unblock detached neighbors that were
            # waiting on an earlier event.
            for nb in g.neighbors(node):
                if not emb.attached(nb) and nb not in pending:
                    pending[nb] = None
    return StabilizationReport(emb.tree_index, reset, reassigned, messages)


def on_link_change(
    g: CreditGraph,
    embeddings: list[Embedding],
    u: NodeId,
    v: NodeId,
    old: int,
    new: int,
    rng: random.Random,
) -> list[StabilizationReport]:
    """Repair every tree affected by the already-applied change w(u, v) -> new.

    Returns one report per tree that actually reset; an empty list means
    the change was absorbed without any coordinate churn (and without
    messages).
    """
    if old == new:
        return []
    reports = []
    for emb in embeddings:
        reset = _reset_for_tree(g, emb, u, v, old, new)
        if reset is not None:
            reports.append(_repair(g, emb, reset, rng))
    return reports


def periodic_rebuild(
    g: CreditGraph,
    landmarks: list[NodeId],
    seed: int,
) -> tuple[list[Embedding], int]:
    """Rebuild all trees from scratch; costs one message per tree per edge."""
    embeddings = build_embeddings(g, landmarks, seed)
    return embeddings, len(landmarks) * g.undirected_edge_count()
