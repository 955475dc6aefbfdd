"""A record store clustered by a sort key, its pages cut from record
sizes.

DM's connectivity encoding lets query processing jump straight to the
node records it needs instead of walking the tree from the root; on
disk that means: records are *clustered* (sorted by z-order of their
position so spatial neighbours share pages) but *addressed* by id.
:class:`LocatorStore` models exactly that access path: the store
resolves every record's page while it lays the records out
(:attr:`LocatorStore.row_pages`) and callers charge the buffer pool
for the pages of each access as one run
(:meth:`LocatorStore.touch_pages`).

Pages are ids with byte lengths (:mod:`repro.storage.pages`), so a
store never packs its records: it cuts pages from their sizes in the
page format's framing, a 2-byte record count per page and a 2-byte
length before each record.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError
from repro.storage.pages import PageManager
from repro.storage.stats import PAGE_CLASS_OTHER

#: Framing bytes: the record count heading a page, and the length
#: prefix heading each record on it.
PAGE_HEADER_BYTES = 2
RECORD_HEADER_BYTES = 2


class LocatorStore:
    """Immutable record store laid out on pages in cluster-key order.

    Parameters
    ----------
    keys:
        One cluster key per record (integers, a z-order code say);
        records are laid out in ascending key order, ties in input
        order.
    sizes:
        Each record's byte size.  Pages are filled greedily in
        cluster order: a record opens a new page when it does not fit
        the current one.
    pages:
        Shared :class:`PageManager`.
    page_class:
        Structure label under which this store's pages are allocated,
        for per-structure read attribution (e.g. "dmtm", "msdn").

    :attr:`row_pages` holds the page id of every record in input
    order, resolved while the pages are cut, so callers charge I/O by
    page array.
    """

    def __init__(
        self, keys, sizes, pages: PageManager, page_class: str = PAGE_CLASS_OTHER
    ):
        sizes = np.asarray(sizes, dtype=np.int64)
        order = np.argsort(np.asarray(keys), kind="stable")
        need = sizes[order] + RECORD_HEADER_BYTES
        capacity = pages.page_size - PAGE_HEADER_BYTES
        if need.size and need.max() > capacity:
            raise StorageError(
                f"a single record of {int(sizes.max())} bytes cannot fit a "
                f"{pages.page_size}-byte page"
            )
        # Greedy fill, one search per page: the page opened by record
        # ``first`` takes every record whose running size ends within
        # ``capacity`` of the page's start.
        ends = np.cumsum(need)
        firsts, lengths = [], []
        first = 0
        while first < len(ends):
            base = int(ends[first - 1]) if first else 0
            stop = int(ends.searchsorted(base + capacity, side="right"))
            firsts.append(first)
            lengths.append(PAGE_HEADER_BYTES + int(ends[stop - 1]) - base)
            first = stop
        page_index = np.empty(len(sizes), dtype=np.int64)
        page_index[order] = (
            np.searchsorted(firsts, np.arange(len(sizes)), side="right") - 1
        )
        self._allocate(lengths, page_index, pages, page_class)

    @classmethod
    def from_records(
        cls,
        count: int,
        record_size: int,
        pages: PageManager,
        page_class: str = PAGE_CLASS_OTHER,
    ) -> "LocatorStore":
        """A store of ``count`` records of ``record_size`` bytes each,
        already in cluster-key order: row ``i`` lives on page
        ``row_pages[i]``.  Its pages are those of the keyed
        constructor over the same sizes: full pages of
        ``(page_size - 2) // (2 + record_size)`` records, then the
        remainder."""
        need = record_size + RECORD_HEADER_BYTES
        if count and PAGE_HEADER_BYTES + need > pages.page_size:
            raise StorageError(
                f"a single record of {record_size} bytes cannot fit a "
                f"{pages.page_size}-byte page"
            )
        per_page = max((pages.page_size - PAGE_HEADER_BYTES) // need, 1)
        full, rest = divmod(count, per_page)
        lengths = [PAGE_HEADER_BYTES + per_page * need] * full
        if rest:
            lengths.append(PAGE_HEADER_BYTES + rest * need)
        store = cls.__new__(cls)
        store._allocate(
            lengths, np.arange(count, dtype=np.int64) // per_page, pages, page_class
        )
        return store

    def _allocate(
        self, lengths, page_index, pages: PageManager, page_class: str
    ) -> None:
        self._pages = pages
        self._page_ids = [
            pages.allocate(length, page_class=page_class) for length in lengths
        ]
        self.row_pages = np.asarray(self._page_ids, dtype=np.int64)[page_index]

    def __len__(self) -> int:
        return len(self.row_pages)

    @property
    def num_pages(self) -> int:
        return len(self._page_ids)

    @property
    def page_ids(self) -> list[int]:
        """The store's page ids, in cluster-key order."""
        return list(self._page_ids)

    def touch_pages(self, page_ids) -> int:
        """Read pre-resolved pages as one run through the buffer pool
        (:meth:`~repro.storage.pages.PageManager.read_pages`): the
        distinct pages of ``page_ids`` (any order, repeats allowed) in
        ascending order — the reads that charging the records one page
        at a time issues
        (:func:`repro.testkit.reference.touch_records_reference`).
        Returns the number of pages read.
        """
        pages = np.sort(np.asarray(page_ids, dtype=np.int64))
        first = np.ones(pages.size, dtype=bool)
        first[1:] = pages[1:] != pages[:-1]
        needed = pages[first].tolist()
        if needed:
            self._pages.read_pages(needed)
        return len(needed)
