"""Unit tests for the locator record store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.locator import LocatorStore
from repro.storage.pages import PageManager
from repro.storage.stats import IOStatistics
from repro.testkit.reference import RecordStoreReference


@pytest.fixture()
def pm():
    return PageManager(page_size=256, buffer_pages=4, stats=IOStatistics())


def _layout(pages: PageManager) -> list:
    """Every page of a manager as (length, class)."""
    return [
        (pages.page_length(p), pages.page_class_of(p)) for p in range(pages.num_pages)
    ]


class TestLocatorStore:
    def test_clustering_locality(self, pm):
        """Records with adjacent cluster keys share pages; touching a
        contiguous run costs few pages."""
        store = LocatorStore(range(200), [32] * 200, pm)
        pm.drop_buffer()
        before = pm.stats.snapshot()
        store.touch_pages(store.row_pages[:20])
        contiguous = pm.stats.delta_since(before).physical_reads
        pm.drop_buffer()
        before = pm.stats.snapshot()
        store.touch_pages(store.row_pages[::10])
        scattered = pm.stats.delta_since(before).physical_reads
        assert contiguous < scattered

    def test_row_pages_follow_input_order(self, pm):
        """Records listed out of cluster order: each row's page is the
        page its cluster position lands on (seven 32-byte framed
        records fit a 256-byte page after its 2-byte count)."""
        store = LocatorStore([59 - i for i in range(60)], [30] * 60, pm)
        assert store.row_pages.tolist() == [
            store.page_ids[(59 - i) // 7] for i in range(60)
        ]
        assert store.page_ids == sorted(set(store.row_pages.tolist()))
        assert [pm.page_length(p) for p in store.page_ids] == [2 + 7 * 32] * 8 + [
            2 + 4 * 32
        ]

    @pytest.mark.parametrize("page_size", [64, 67, 100, 256, 2048])
    def test_from_records_equals_item_build(self, page_size):
        """Equal-size records in cluster order page out like the keyed
        constructor over the same sizes: same row pages, page ids,
        lengths and classes (67 bytes hold exactly five framed
        records after the count)."""
        got_pm, want_pm = PageManager(page_size), PageManager(page_size)
        got = LocatorStore.from_records(37, 11, got_pm, page_class="msdn")
        want = LocatorStore(range(37), [11] * 37, want_pm, page_class="msdn")
        assert got.row_pages.tolist() == want.row_pages.tolist()
        assert got.page_ids == want.page_ids
        assert _layout(got_pm) == _layout(want_pm)

    def test_from_records_rejects_oversized_record(self):
        with pytest.raises(StorageError, match="cannot fit"):
            LocatorStore.from_records(3, 63, PageManager(page_size=64))
        with pytest.raises(StorageError, match="cannot fit"):
            LocatorStore([0, 1], [1, 61], PageManager(page_size=64))
        store = LocatorStore.from_records(0, 63, PageManager(page_size=64))
        assert store.num_pages == 0 and store.row_pages.size == 0

    @given(
        page_size=st.integers(64, 600),
        records=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 60)), max_size=120
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_cut_equals_record_by_record_pagination(self, page_size, records):
        """The per-page cut equals the per-record paginator of the
        by-record store: row pages, page ids, lengths and classes,
        repeated keys included."""
        keys = [key for key, _size in records]
        sizes = [size for _key, size in records]
        got_pm, want_pm = PageManager(page_size), PageManager(page_size)
        got = LocatorStore(keys, sizes, got_pm, page_class="dmtm")
        want = RecordStoreReference(
            [(key, row, size) for row, (key, size) in enumerate(records)],
            want_pm,
            page_class="dmtm",
        )
        assert got.row_pages.tolist() == want.row_pages.tolist()
        assert got.page_ids == want.page_ids
        assert _layout(got_pm) == _layout(want_pm)

    @pytest.mark.parametrize(
        "page_ids, bounds",
        [
            # Pages shared by adjacent touches, unsorted within touches.
            ([5, 3, 3, 9, 3, 5, 5, 1, 9, 9], [0, 4, 7, 10]),
            # Empty touches at the start, in the middle and at the end.
            ([2, 2, 7, 0, 7], [0, 0, 3, 3, 5, 5]),
            # One touch (no bounds) and nothing at all.
            ([8, 1, 8, 4, 1], None),
            ([], [0, 0]),
        ],
    )
    def test_touch_pages_dedupes_each_run(self, pm, monkeypatch, page_ids, bounds):
        """``bounds`` cuts ``page_ids`` into successive touches: each
        touch is one run read of its own distinct pages, ascending, so
        a page two touches share is read by both; an empty touch reads
        nothing."""
        store = LocatorStore(range(60), [40] * 60, pm)
        assert store.num_pages >= 10
        runs: list[list[int]] = []
        read_pages = pm.read_pages

        def logged(ids):
            runs.append(list(ids))
            return read_pages(ids)

        monkeypatch.setattr(pm, "read_pages", logged)
        pages = np.array(page_ids, dtype=np.int64)
        cuts = [0, len(page_ids)] if bounds is None else bounds
        for start, stop in zip(cuts, cuts[1:]):
            runs.clear()
            want = np.unique(pages[start:stop]).tolist()
            assert store.touch_pages(pages[start:stop]) == len(want)
            assert runs == ([want] if want else [])
