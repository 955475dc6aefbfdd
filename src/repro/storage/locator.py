"""A record store addressed by record id, clustered by a sort key.

DM's connectivity encoding lets query processing jump straight to the
node records it needs instead of walking the tree from the root; on
disk that means: records are *clustered* (sorted by z-order of their
position so spatial neighbours share pages) but *addressed* by id.
:class:`LocatorStore` models exactly that access path: the store
resolves every record's page while it writes them
(:attr:`LocatorStore.row_pages`) and callers charge the buffer pool
for the pages of each access as one run
(:meth:`LocatorStore.touch_pages`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError
from repro.storage.pages import PageManager
from repro.storage.records import (
    pack_page,
    pack_uniform_pages,
    paginate,
    unpack_page,
)
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

    :attr:`row_pages` holds the page id of every record in input
    order, resolved while the pages are written, so callers charge
    I/O by page array from the start instead of resolving record ids
    on first use.
    """

    def __init__(self, items, pages: PageManager, page_class: str = PAGE_CLASS_OTHER):
        items = list(items)
        order = sorted(range(len(items)), key=lambda i: items[i][0])
        batches = paginate([items[i][2] for i in order], pages.page_size)
        page_index = np.empty(len(items), dtype=np.int64)
        self._locators: dict[object, tuple[int, int]] = {}
        cursor = 0
        for index, batch in enumerate(batches):
            for slot in range(len(batch)):
                row = order[cursor]
                rid = items[row][1]
                if rid in self._locators:
                    raise StorageError(f"duplicate record id {rid!r}")
                self._locators[rid] = (index, slot)
                page_index[row] = index
                cursor += 1
        images = [pack_page(batch, pages.page_size) for batch in batches]
        self._allocate(images, page_index, pages, page_class)

    @classmethod
    def from_records(
        cls, records: np.ndarray, pages: PageManager, page_class: str = PAGE_CLASS_OTHER
    ) -> "LocatorStore":
        """A store of equal-size records given as one array already in
        cluster-key order, addressed by row: row ``i`` lives on page
        ``row_pages[i]``.  The pages are byte for byte those of the
        item constructor over the same payloads in the same order
        (:func:`~repro.storage.records.pack_uniform_pages`); the
        records carry no ids, so only page runs are read."""
        images, per_page = pack_uniform_pages(records, pages.page_size)
        store = cls.__new__(cls)
        store._locators = {}
        page_index = np.arange(len(records), dtype=np.int64) // max(per_page, 1)
        store._allocate(images, page_index, pages, page_class)
        return store

    def _allocate(
        self, images, page_index, pages: PageManager, page_class: str
    ) -> None:
        self._pages = pages
        self._page_ids = [
            pages.allocate(image, page_class=page_class) for image in images
        ]
        self.row_pages = np.asarray(self._page_ids, dtype=np.int64)[page_index]
        self._count = len(page_index)

    def __len__(self) -> int:
        return self._count

    @property
    def num_pages(self) -> int:
        return len(self._page_ids)

    @property
    def page_ids(self) -> list[int]:
        """The store's page ids, in cluster-key order."""
        return list(self._page_ids)

    def page_of(self, record_id) -> int:
        """Page id holding a record."""
        return self._page_ids[self._locator(record_id)[0]]

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

    def fetch(self, record_id) -> bytes:
        """Read and return one record's blob."""
        index, slot = self._locator(record_id)
        return unpack_page(self._pages.read(self._page_ids[index]))[slot]

    def _locator(self, record_id) -> tuple[int, int]:
        loc = self._locators.get(record_id)
        if loc is None:
            raise StorageError(f"unknown record id {record_id!r}")
        return loc
