"""Record serialization onto pages.

Records are variable-length byte strings; a page holds a 2-byte
record count followed by (2-byte length, payload) entries.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import StorageError

_COUNT = struct.Struct("<H")
_LEN = struct.Struct("<H")


def pack_page(records: list[bytes], page_size: int) -> bytes:
    """Serialize records into one page image."""
    parts = [_COUNT.pack(len(records))]
    total = _COUNT.size
    for rec in records:
        if len(rec) > 0xFFFF:
            raise StorageError("record exceeds 64 KiB length prefix")
        total += _LEN.size + len(rec)
        parts.append(_LEN.pack(len(rec)))
        parts.append(rec)
    if total > page_size:
        raise StorageError(
            f"{len(records)} records need {total} bytes > page size {page_size}"
        )
    return b"".join(parts)


def unpack_page(data: bytes) -> list[bytes]:
    """Deserialize a page image back into its record payloads."""
    (count,) = _COUNT.unpack_from(data, 0)
    offset = _COUNT.size
    records = []
    for _ in range(count):
        (length,) = _LEN.unpack_from(data, offset)
        offset += _LEN.size
        records.append(data[offset : offset + length])
        offset += length
    return records


def paginate(encoded_records: list[bytes], page_size: int) -> list[list[bytes]]:
    """Greedily group encoded records into page-sized batches,
    preserving order (clustering!)."""
    pages: list[list[bytes]] = []
    current: list[bytes] = []
    used = _COUNT.size
    for rec in encoded_records:
        need = _LEN.size + len(rec)
        if used + need > page_size and current:
            pages.append(current)
            current = []
            used = _COUNT.size
        if _COUNT.size + need > page_size:
            raise StorageError(
                f"a single record of {len(rec)} bytes cannot fit a "
                f"{page_size}-byte page"
            )
        current.append(rec)
        used += need
    if current:
        pages.append(current)
    return pages


def pack_uniform_pages(records: np.ndarray, page_size: int) -> tuple[list[bytes], int]:
    """Page images of equal-size records, in order, and the number of
    records per page.

    ``records`` is a one-dimensional array whose items are the record
    payloads (a structured dtype, say).  The images are byte for byte
    what :func:`pack_page` makes of :func:`paginate`'s batches of the
    items' bytes: full pages of ``(page_size - 2) // (2 + itemsize)``
    records, then the remainder.  A record that cannot fit a page
    raises :class:`StorageError`, as there.
    """
    size = records.dtype.itemsize
    count = len(records)
    if not count:
        return [], 0
    if size > 0xFFFF:
        raise StorageError("record exceeds 64 KiB length prefix")
    need = _LEN.size + size
    if _COUNT.size + need > page_size:
        raise StorageError(
            f"a single record of {size} bytes cannot fit a {page_size}-byte page"
        )
    per_page = (page_size - _COUNT.size) // need
    framed = np.empty((count, need), dtype=np.uint8)
    framed[:, : _LEN.size] = np.frombuffer(_LEN.pack(size), dtype=np.uint8)
    framed[:, _LEN.size :] = np.ascontiguousarray(records).view(np.uint8).reshape(
        count, size
    )
    body = framed.tobytes()
    images = []
    for start in range(0, count, per_page):
        stop = min(start + per_page, count)
        images.append(_COUNT.pack(stop - start) + body[start * need : stop * need])
    return images, per_page
