"""On-disk persistence for the DMTM collapse history.

The paper pre-creates the DMTM and stores it in the database ("DMTM
is pre-created and a clustering B+ tree index is used"); the QEM
collapse is by far the most expensive build step, so a library user
wants to build once and reload.  The format is a small framed binary
container (no pickle: loading data must never execute code).

Layout:
    magic  b"SKNNDDM1"
    u64    num_leaves
    u64    num_nodes
    u64    num_roots, then u64 per root
    per node:
        i64 node_id, i64 rep, i64 birth, i64 death (-1 = alive),
        i64 parent (-1 = none), i64 child_a (-1), i64 child_b,
        f64 error, f64 offset_to_parent_rep, 3*f64 position,
        u32 record_count, then (i64 nbr, f64 dist) per record
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from repro.errors import MultiresError
from repro.simplification.collapse import CollapseHistory, CollapseNode

_MAGIC = b"SKNNDDM1"
_HEAD = struct.Struct("<QQ")
_NODE = struct.Struct("<7q2d3dI")
_REC = struct.Struct("<qd")


def save_history(history: CollapseHistory, path) -> None:
    """Write a collapse history to ``path``."""
    parts = [_MAGIC, _HEAD.pack(history.num_leaves, len(history.nodes))]
    parts.append(struct.pack("<Q", len(history.roots)))
    for root in history.roots:
        parts.append(struct.pack("<Q", root))
    for node in history.nodes:
        a, b = node.children if node.children is not None else (-1, -1)
        parts.append(
            _NODE.pack(
                node.node_id,
                node.rep,
                node.birth_step,
                node.death_step if node.death_step is not None else -1,
                node.parent if node.parent is not None else -1,
                a,
                b,
                node.error,
                node.offset_to_parent_rep,
                *[float(c) for c in node.position],
                len(node.records),
            )
        )
        for nbr, dist in node.records:
            parts.append(_REC.pack(nbr, dist))
    Path(path).write_bytes(b"".join(parts))


def validate(data: bytes, source="<bytes>") -> None:
    """Structural integrity check of a serialized collapse history.

    Walks the full framed layout — magic, header, root table, every
    node and neighbour record — verifying each frame fits inside
    ``data`` and the counts are mutually consistent, and raises
    :class:`MultiresError` naming ``source`` and the offending frame.
    A file that passes cannot make :func:`load_history` run off the
    end of the buffer or mis-frame a node (a flipped byte inside a
    float payload is indistinguishable from data, which framing
    checks cannot catch).
    """

    def need(offset: int, size: int, what: str) -> None:
        if offset + size > len(data):
            raise MultiresError(
                f"{source}: truncated DDM history — {what} needs "
                f"{size} bytes at offset {offset}, file has {len(data)}"
            )

    if not data.startswith(_MAGIC):
        raise MultiresError(f"{source} is not a DDM history file (bad magic)")
    offset = len(_MAGIC)
    need(offset, _HEAD.size, "header")
    num_leaves, num_nodes = _HEAD.unpack_from(data, offset)
    offset += _HEAD.size
    if num_leaves > num_nodes:
        raise MultiresError(
            f"{source}: header claims {num_leaves} leaves but only "
            f"{num_nodes} nodes"
        )
    need(offset, 8, "root count")
    (num_roots,) = struct.unpack_from("<Q", data, offset)
    offset += 8
    if num_roots > num_nodes:
        raise MultiresError(
            f"{source}: {num_roots} roots exceed the {num_nodes} nodes"
        )
    need(offset, 8 * num_roots, "root table")
    roots = struct.unpack_from(f"<{num_roots}Q", data, offset)
    offset += 8 * num_roots
    for root in roots:
        if root >= num_nodes:
            raise MultiresError(
                f"{source}: root id {root} out of range [0, {num_nodes})"
            )
    for index in range(num_nodes):
        need(offset, _NODE.size, f"node {index}")
        record_count = _NODE.unpack_from(data, offset)[-1]
        offset += _NODE.size
        need(offset, _REC.size * record_count, f"node {index} records")
        offset += _REC.size * record_count
    if offset != len(data):
        raise MultiresError(
            f"{source}: {len(data) - offset} trailing bytes after the "
            f"last node"
        )


def load_history(path) -> CollapseHistory:
    """Read a collapse history written by :func:`save_history`.

    The byte stream is validated (:func:`validate`) before parsing,
    so a truncated or structurally corrupted file raises
    :class:`MultiresError` instead of a bare ``struct.error``.
    """
    data = Path(path).read_bytes()
    validate(data, source=str(path))
    offset = len(_MAGIC)
    num_leaves, num_nodes = _HEAD.unpack_from(data, offset)
    offset += _HEAD.size
    (num_roots,) = struct.unpack_from("<Q", data, offset)
    offset += 8
    roots = list(struct.unpack_from(f"<{num_roots}Q", data, offset))
    offset += 8 * num_roots
    nodes: list[CollapseNode] = []
    for _ in range(num_nodes):
        (
            node_id,
            rep,
            birth,
            death,
            parent,
            child_a,
            child_b,
            error,
            rep_offset,
            x,
            y,
            z,
            record_count,
        ) = _NODE.unpack_from(data, offset)
        offset += _NODE.size
        records = []
        for _r in range(record_count):
            nbr, dist = _REC.unpack_from(data, offset)
            offset += _REC.size
            records.append((nbr, dist))
        nodes.append(
            CollapseNode(
                node_id=node_id,
                rep=rep,
                position=np.array([x, y, z]),
                error=error,
                birth_step=birth,
                children=None if child_a < 0 else (child_a, child_b),
                parent=None if parent < 0 else parent,
                death_step=None if death < 0 else death,
                records=records,
                offset_to_parent_rep=rep_offset,
            )
        )
    if len(nodes) != num_nodes:
        raise MultiresError("truncated DDM history file")
    return CollapseHistory(nodes, num_leaves=num_leaves, roots=roots)
