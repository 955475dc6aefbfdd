"""Unit tests for the locator record store."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.locator import LocatorStore
from repro.storage.pages import PageManager
from repro.storage.stats import IOStatistics


@pytest.fixture()
def pm():
    return PageManager(page_size=256, buffer_pages=4, stats=IOStatistics())


class TestLocatorStore:
    def test_fetch_and_touch(self, pm):
        items = [((i,), f"id{i}", bytes([i]) * 4) for i in range(60)]
        store = LocatorStore(items, pm)
        assert store.fetch("id3") == b"\x03\x03\x03\x03"
        pm.drop_buffer()
        before = pm.stats.snapshot()
        pages = store.touch_pages([store.page_of(f"id{i}") for i in range(10)])
        assert pages >= 1
        assert pm.stats.delta_since(before).physical_reads == pages

    def test_unknown_id(self, pm):
        store = LocatorStore([((0,), "a", b"x")], pm)
        with pytest.raises(StorageError):
            store.fetch("b")

    def test_duplicate_id_rejected(self, pm):
        with pytest.raises(StorageError):
            LocatorStore([((0,), "a", b"x"), ((1,), "a", b"y")], pm)

    def test_clustering_locality(self, pm):
        """Records with adjacent cluster keys share pages; touching a
        contiguous run costs few pages."""
        items = [((i,), i, b"data" * 8) for i in range(200)]
        store = LocatorStore(items, pm)
        pm.drop_buffer()
        before = pm.stats.snapshot()
        store.touch_pages([store.page_of(i) for i in range(20)])
        contiguous = pm.stats.delta_since(before).physical_reads
        pm.drop_buffer()
        before = pm.stats.snapshot()
        store.touch_pages([store.page_of(i) for i in range(0, 200, 10)])
        scattered = pm.stats.delta_since(before).physical_reads
        assert contiguous < scattered

    def test_row_pages_follow_input_order(self, pm):
        """Items listed out of cluster order: each row's page is the
        page its record id lands on."""
        items = [((59 - i,), f"id{i}", bytes([i]) * 30) for i in range(60)]
        store = LocatorStore(items, pm)
        assert store.row_pages.tolist() == [
            store.page_of(f"id{i}") for i in range(60)
        ]
        assert store.page_ids == sorted(set(store.row_pages.tolist()))

    @pytest.mark.parametrize("page_size", [64, 100, 256, 2048])
    def test_from_records_equals_item_build(self, page_size):
        """A structured record array in cluster order pages out byte for
        byte like the item constructor over the same payloads."""
        dtype = np.dtype([("a", "<u2"), ("b", "<f8"), ("c", "u1")])
        records = np.zeros(37, dtype=dtype)
        records["a"] = np.arange(37)
        records["b"] = np.linspace(-1.0, 1.0, 37)
        records["c"] = 7
        got_pm, want_pm = PageManager(page_size), PageManager(page_size)
        got = LocatorStore.from_records(records, got_pm)
        want = LocatorStore(
            [((i,), i, records[i].tobytes()) for i in range(len(records))], want_pm
        )
        assert got.row_pages.tolist() == want.row_pages.tolist()
        assert got.page_ids == want.page_ids
        assert [got_pm._disk.read(p) for p in got.page_ids] == [
            want_pm._disk.read(p) for p in want.page_ids
        ]
        assert got_pm._crc == want_pm._crc

    def test_from_records_rejects_oversized_record(self):
        records = np.zeros(3, dtype=np.dtype([("blob", "V63")]))
        with pytest.raises(StorageError, match="cannot fit"):
            LocatorStore.from_records(records, PageManager(page_size=64))
        store = LocatorStore.from_records(records[:0], PageManager(page_size=64))
        assert store.num_pages == 0 and store.row_pages.size == 0

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
        store = LocatorStore([((i,), i, b"r" * 40) for i in range(60)], pm)
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
