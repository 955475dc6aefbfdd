"""A record store addressed by record id, clustered by a sort key.

DM's connectivity encoding lets query processing jump straight to the
node records it needs instead of walking the tree from the root; on
disk that means: records are *clustered* (sorted by z-order of their
position so spatial neighbours share pages) but *addressed* by id.
:class:`LocatorStore` models exactly that access path: callers resolve
record ids to pages once (:meth:`LocatorStore.page_of`) and charge the
buffer pool for the pages of each access as one run
(:meth:`LocatorStore.touch_pages`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError
from repro.storage.pages import PageManager
from repro.storage.records import pack_page, paginate, unpack_page
from repro.storage.stats import PAGE_CLASS_OTHER


class LocatorStore:
    """Immutable id-addressed record store.

    Parameters
    ----------
    items:
        Iterable of ``(cluster_key, record_id, blob)``; blobs are laid
        out on pages in cluster-key order.
    pages:
        Shared :class:`PageManager`.
    page_class:
        Structure label under which this store's pages are allocated,
        for per-structure read attribution (e.g. "dmtm", "msdn").
    """

    def __init__(self, items, pages: PageManager, page_class: str = PAGE_CLASS_OTHER):
        self._pages = pages
        ordered = sorted(items, key=lambda t: t[0])
        blobs = [blob for _key, _rid, blob in ordered]
        self._locators: dict[object, tuple[int, int]] = {}
        self._page_ids: list[int] = []
        cursor = 0
        for batch in paginate(blobs, pages.page_size):
            page_id = pages.allocate(
                pack_page(batch, pages.page_size), page_class=page_class
            )
            self._page_ids.append(page_id)
            for slot in range(len(batch)):
                rid = ordered[cursor][1]
                if rid in self._locators:
                    raise StorageError(f"duplicate record id {rid!r}")
                self._locators[rid] = (page_id, slot)
                cursor += 1
        self._count = cursor

    def __len__(self) -> int:
        return self._count

    @property
    def num_pages(self) -> int:
        return len(self._page_ids)

    def page_of(self, record_id) -> int:
        """Page id holding a record (for callers that pre-resolve the
        id → page mapping once and then touch by page array)."""
        return self._locator(record_id)[0]

    def touch_pages(self, page_ids, bounds=None) -> int:
        """Read pre-resolved pages as one run through the buffer pool
        (:meth:`~repro.storage.pages.PageManager.read_pages`).

        ``bounds`` (offsets, length runs + 1, from 0 to
        ``len(page_ids)``) cuts ``page_ids`` into runs; None makes it
        one run.  Runs may hold duplicates and be empty.  Each run's
        distinct pages are read in ascending order, runs in order — the
        reads that charging each run's records one page at a time
        issues (:func:`repro.testkit.reference.touch_records_reference`)
        — so a page in two runs is read once per run.  Returns the
        number of pages read.
        """
        pages = np.asarray(page_ids, dtype=np.int64)
        if bounds is None:
            bounds = (0, pages.size)
        runs = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        order = np.lexsort((pages, runs))
        pages, runs = pages[order], runs[order]
        first = np.ones(pages.size, dtype=bool)
        first[1:] = (pages[1:] != pages[:-1]) | (runs[1:] != runs[:-1])
        needed = pages[first].tolist()
        if needed:
            self._pages.read_pages(needed)
        return len(needed)

    def fetch(self, record_id) -> bytes:
        """Read and return one record's blob."""
        page_id, slot = self._locator(record_id)
        return unpack_page(self._pages.read(page_id))[slot]

    def _locator(self, record_id) -> tuple[int, int]:
        loc = self._locators.get(record_id)
        if loc is None:
            raise StorageError(f"unknown record id {record_id!r}")
        return loc
