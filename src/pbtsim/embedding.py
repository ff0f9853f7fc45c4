"""Prefix embeddings: spanning-tree coordinates and anonymous return addresses.

Every landmark roots one spanning tree. The landmark's coordinate is the
empty vector and each child extends its parent's coordinate by one random
b-bit element, so the tree distance between two nodes is
``len(a) + len(b) - 2 * common_prefix_len(a, b)``.

A receiver can hand out a return address instead of its coordinate: the
coordinate is padded to the smallest multiple of ``DEFAULT_ADDRESS_LEN``
that holds it and every element is keyed-hashed. Forwarders compare hashed
prefixes, which shifts all distances by a constant (padding minus the
receiver's depth) and therefore preserves the greedy next-hop ordering.

Keyed hashing is the privacy model (``hashed_prefix_len``,
``address_distance``); the simulator's forwarders route on the plaintext
prefix of the padded coordinate instead, which gives the same distance
except on a 2^-128 digest collision (the embedding and routing tests check
the two against each other). The digests are therefore computed only when
read, and no command reads them: the model stays as the tests' reference.
``routing`` still imports ``address_distance`` because ``bench/harness.py``
patches it there, but nothing calls it, so its trace metrics read 0
(ROADMAP, "Dead trace metrics").
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError, InternalError
from .graph import CreditGraph, NodeId

Coordinate = tuple[int, ...]
Hops = tuple[tuple[NodeId, NodeId], ...]

DEFAULT_ELEMENT_BITS = 128
# Padded address length; routing pads to the smallest multiple of it that holds
# the receiver's coordinate (``routing.gen_addresses``).
DEFAULT_ADDRESS_LEN = 16


def derive_seed(seed: int, label: str) -> int:
    """Stable child seed for an independent random stream."""
    digest = hashlib.blake2b(f"{seed}|{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def common_prefix_len(a: tuple, b: tuple) -> int:
    """Length of the longest common prefix of two coordinates (or hop tuples)."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def coord_distance(a: Coordinate, b: Coordinate) -> int:
    """Hop distance between two tree positions."""
    return len(a) + len(b) - 2 * common_prefix_len(a, b)


def is_prefix(a: Coordinate, b: Coordinate) -> bool:
    """True iff a is a (non-strict) prefix of b."""
    return len(a) <= len(b) and b[: len(a)] == a


# ---- anonymous return addresses -------------------------------------------


def _hash_element(key: bytes, element: int, nbytes: int) -> bytes:
    return hashlib.blake2b(
        element.to_bytes(nbytes, "big"), digest_size=16, key=key
    ).digest()


@dataclass(frozen=True)
class ReturnAddress:
    """Padded, keyed-hashed coordinate.

    ``hashed`` has exactly the padded length; positions past the real
    coordinate hold hashes of fresh random padding elements. ``elements``
    is the pre-hash padded coordinate, which only the issuing receiver
    holds; keeping it on the object stands in for the receiver's local
    memory and lets it recognize itself without re-hashing.
    """

    key: bytes
    real_len: int
    elements: Coordinate
    element_bits: int = DEFAULT_ELEMENT_BITS

    @cached_property
    def hashed(self) -> tuple[bytes, ...]:
        nbytes = (self.element_bits + 7) // 8
        return tuple(_hash_element(self.key, e, nbytes) for e in self.elements)

    def is_receiver(self, coord: Coordinate | None) -> bool:
        return (
            coord is not None
            and len(coord) == self.real_len
            and coord == self.elements[: self.real_len]
        )


def gen_return_address(
    c: Coordinate,
    delta: int,
    rng: random.Random,
    element_bits: int = DEFAULT_ELEMENT_BITS,
) -> ReturnAddress:
    """Create a fresh-keyed return address for coordinate c, padded to delta."""
    if len(c) > delta:
        raise ConfigError(f"coordinate depth {len(c)} exceeds address length {delta}")
    key = rng.getrandbits(128).to_bytes(16, "big")
    padding = tuple(rng.getrandbits(element_bits) for _ in range(delta - len(c)))
    return ReturnAddress(key, len(c), tuple(c) + padding, element_bits)


def hashed_prefix_len(c: Coordinate, addr: ReturnAddress) -> int:
    """Longest prefix of c whose keyed hashes match the address element-wise."""
    key = addr.key
    nbytes = (addr.element_bits + 7) // 8
    n = 0
    for element, digest in zip(c, addr.hashed):
        if _hash_element(key, element, nbytes) != digest:
            break
        n += 1
    return n


def address_distance(c: Coordinate, addr: ReturnAddress) -> int:
    """Distance to the hidden receiver, shifted by the padded length."""
    return len(c) + len(addr.hashed) - 2 * hashed_prefix_len(c, addr)


# ---- spanning-tree embedding ----------------------------------------------


class Embedding:
    """One landmark's spanning tree: parent links plus prefix coordinates.

    The tree is its ``parent`` and ``coord`` maps; a node's children are the
    graph neighbors whose parent it is (``subtree``). Once built, the tree
    changes only through attach/detach, so the previous-coordinate memory
    (needed by the re-parent cycle rule) and the optional undo journal stay
    consistent. Only ``build_embeddings`` writes the maps directly, while
    the tree is fresh and has neither a journal nor an index.

    ``neighbor_index`` maps a node to the neighbor index greedy routing
    keeps for it (``routing.build_neighbor_index``, with the neighbor list
    it was built from). While any index exists, attach, detach and
    rollback_undo add every node whose coordinate they change to ``moved``,
    for the staleness rule in the ``routing`` module docstring. A fresh
    embedding has no indexes.

    ``landmark_hops`` caches each node's hops to and from the landmark,
    which both structural path rules read. A move can change the chain of
    every node below the moved one, so the whole cache is emptied on every
    attach and detach, and by a rollback_undo that undoes anything. A
    rebuild makes new embeddings, whose caches start empty.
    """

    def __init__(
        self,
        tree_index: int,
        landmark: NodeId,
        element_bits: int = DEFAULT_ELEMENT_BITS,
    ) -> None:
        self.tree_index = tree_index
        self.landmark = landmark
        self.element_bits = element_bits
        self.parent: dict[NodeId, NodeId] = {}
        self.coord: dict[NodeId, Coordinate] = {landmark: ()}
        self.prev_coord: dict[NodeId, Coordinate] = {}
        self._journal: list[tuple] | None = None
        self.neighbor_index: dict[NodeId, tuple] = {}
        self.moved: set[NodeId] = set()
        self._hops: dict[NodeId, tuple[Hops, Hops]] = {}

    # -- undo journal (static-mode transaction isolation) --

    def begin_undo(self) -> None:
        self._journal = []

    def _record(self, node: NodeId) -> None:
        """Journal the node's state, mark it moved and empty the hop cache before a
        mutation changes it."""
        self._hops.clear()
        if self._journal is not None:
            self._journal.append(
                (node, self.parent.get(node), self.coord.get(node), self.prev_coord.get(node))
            )
        if self.neighbor_index:
            self.moved.add(node)

    def rollback_undo(self) -> None:
        """Restore the exact state captured since begin_undo."""
        if self._journal is None:
            raise InternalError("rollback without begin_undo")
        if self._journal:
            self._hops.clear()
        if self.neighbor_index:
            self.moved.update(entry[0] for entry in self._journal)
        for node, old_parent, old_coord, old_prev in reversed(self._journal):
            for mapping, value in ((self.parent, old_parent), (self.coord, old_coord), (self.prev_coord, old_prev)):
                if value is None:
                    mapping.pop(node, None)
                else:
                    mapping[node] = value
        self._journal = None

    # -- queries --

    def attached(self, node: NodeId) -> bool:
        return node in self.coord

    def depth(self, node: NodeId) -> int:
        return len(self.coord[node])

    def subtree(self, g: CreditGraph, root: NodeId) -> list[NodeId]:
        """Root plus all descendants, breadth-first, siblings in ascending id.

        The children of a node are its graph neighbors whose parent it is, so
        this relies on every tree link being a graph link. On-demand repair,
        the only caller, keeps that true: removing a parent link resets the
        child.
        """
        parent = self.parent
        out = [root]
        for node in out:  # grows while it is read: a breadth-first queue
            for n in g.neighbors(node):
                if parent.get(n) == node:
                    out.append(n)
        return out

    def path_to_landmark(self, node: NodeId) -> list[NodeId]:
        """Node list from node up to the landmark, inclusive."""
        parent_get, landmark = self.parent.get, self.landmark
        chain = [node]
        x = node
        for _ in range(len(self.parent)):  # one step per node with a parent; more is a cycle
            if x == landmark:
                break
            x = parent_get(x)
            if x is None:
                break
            chain.append(x)
        if x != landmark:
            raise InternalError(f"broken parent chain at {chain[-1]} in tree {self.tree_index}")
        return chain

    def landmark_hops(self, node: NodeId) -> tuple[Hops, Hops]:
        """(up, down): the hops from the attached node up to the landmark, and
        the same hops reversed, from the landmark down to it.

        Walked with ``path_to_landmark`` on first use and cached until the
        tree changes (see the class docstring).
        """
        hops = self._hops.get(node)
        if hops is None:
            chain = self.path_to_landmark(node)
            up = tuple(zip(chain, chain[1:]))
            hops = self._hops[node] = (up, tuple((b, a) for a, b in reversed(up)))
        return hops

    def check_invariants(self, g: CreditGraph) -> None:
        """Raise InternalError unless the tree is consistent.

        The landmark sits at ``()`` without a parent; every other attached
        node has an attached parent whose coordinate plus one element is its
        own (greedy routing's plaintext distance rests on this), so depth
        falls by one per parent step and every chain ends at the landmark
        without a cycle. Every node is adjacent to its parent in ``g``
        (``subtree`` rests on this).
        """
        where = f"in tree {self.tree_index}"
        if self.coord.get(self.landmark) != () or self.landmark in self.parent:
            raise InternalError(f"landmark {self.landmark} is not the root {where}")
        for node, coord in self.coord.items():
            if node == self.landmark:
                continue
            parent_coord = self.coord.get(self.parent.get(node))
            if not coord or parent_coord is None or coord[:-1] != parent_coord:
                raise InternalError(
                    f"coordinate of {node} does not extend its parent's by one element {where}"
                )
        if not self.parent.keys() <= self.coord.keys():
            raise InternalError(f"detached node keeps a parent {where}")
        for node, parent in self.parent.items():
            if not (g.weight(node, parent) or g.weight(parent, node)):
                raise InternalError(f"{node} is not adjacent to its parent {parent} {where}")

    # -- mutation --

    def attach(self, node: NodeId, parent: NodeId, element: int) -> None:
        if node in self.coord:
            raise InternalError(f"attach of already-attached node {node}")
        self._record(node)
        self.parent[node] = parent
        self.coord[node] = self.coord[parent] + (element,)

    def detach(self, node: NodeId) -> None:
        """Drop the node's coordinate, remembering it for the cycle rule."""
        if node == self.landmark:
            raise InternalError("landmark cannot be detached")
        self._record(node)
        self.prev_coord[node] = self.coord.pop(node)
        self.parent.pop(node, None)


def build_embeddings(
    g: CreditGraph,
    landmarks: list[NodeId],
    seed: int,
    element_bits: int = DEFAULT_ELEMENT_BITS,
) -> list[Embedding]:
    """Construct one spanning tree per landmark with two-phase BFS.

    Phase one grows the tree along links with positive weight in both
    directions only. Which neighbors those are is the same for every tree,
    so one pass over the links first splits each node's two-way neighbors
    into a list, ascending like its neighbor list, and every tree's phase
    one reads those lists. Once that frontier is exhausted, phase two lets
    the remaining nodes join through a link with weight in at least one
    direction (zero-zero pairs cannot exist in the graph). It starts, in
    ascending id, from the attached nodes that still have an unattached
    neighbor (rescanning any other node would attach nothing and draw
    nothing), and each of those scans its whole neighbor list, as does
    every node phase two attaches. Nodes with no usable connection to any
    landmark stay unattached.

    A fresh tree has no undo journal and no neighbor index, so the build
    writes ``parent`` and ``coord`` directly, in the order and with the
    random draws ``attach`` would give.
    """
    links = g._links
    adj = g._adj
    bidi: dict[NodeId, list[NodeId]] = {v: [] for v in adj}
    for u, v in links:
        if u < v and (v, u) in links:
            bidi[u].append(v)
            bidi[v].append(u)
    for ns in bidi.values():
        ns.sort()
    embeddings = []
    for i, lm in enumerate(landmarks):
        if lm not in adj:
            raise ConfigError(f"landmark {lm} not in graph")
        getrandbits = random.Random(derive_seed(seed, f"tree:{i}")).getrandbits
        emb = Embedding(i, lm, element_bits)
        parent = emb.parent
        coord = emb.coord
        queue = [lm]
        for node in queue:  # grows while it is read: a breadth-first queue
            c = coord[node]
            for n in bidi[node]:
                if n not in coord:
                    parent[n] = node
                    coord[n] = c + (getrandbits(element_bits),)
                    queue.append(n)
        queue = sorted({y for x in adj if x not in coord for y in adj[x] if y in coord})
        for node in queue:
            c = coord[node]
            for n in adj[node]:
                if n not in coord:
                    parent[n] = node
                    coord[n] = c + (getrandbits(element_bits),)
                    queue.append(n)
        embeddings.append(emb)
    return embeddings
