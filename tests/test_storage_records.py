"""Unit tests for record pagination: the per-record greedy
paginator the stores are checked against, and the store's own cut."""

import pytest

from repro.errors import StorageError
from repro.storage.locator import LocatorStore
from repro.storage.pages import PageManager
from repro.testkit.reference import paginate_reference


class TestPaginate:
    def test_preserves_order(self):
        sizes = [10] * 50
        pages = paginate_reference(sizes, page_size=128)
        flattened = [position for page in pages for position in page]
        assert flattened == list(range(50))

    def test_respects_page_size(self):
        sizes = [30] * 40
        for page in paginate_reference(sizes, page_size=128):
            assert 2 + sum(2 + sizes[position] for position in page) <= 128
        pm = PageManager(page_size=128)
        store = LocatorStore(range(40), sizes, pm)
        assert all(pm.page_length(p) <= 128 for p in store.page_ids)

    def test_single_huge_record_rejected(self):
        with pytest.raises(StorageError):
            paginate_reference([1000], page_size=128)
        with pytest.raises(StorageError):
            LocatorStore([0], [1000], PageManager(page_size=128))

    def test_empty_input(self):
        assert paginate_reference([], page_size=128) == []
        assert LocatorStore([], [], PageManager(page_size=128)).num_pages == 0
