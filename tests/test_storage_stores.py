"""Unit tests for the clustered, spatial and locator record stores."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.geometry.primitives import BoundingBox
from repro.storage.clustered import ClusteredRecordStore
from repro.storage.locator import LocatorStore
from repro.storage.pages import PageManager
from repro.storage.records import RecordCodec, pack_floats, unpack_floats
from repro.storage.segstore import SpatialRecordStore
from repro.storage.stats import IOStatistics


@pytest.fixture()
def pm():
    return PageManager(page_size=256, buffer_pages=4, stats=IOStatistics())


CODEC = RecordCodec(encode=pack_floats, decode=unpack_floats)


class TestClusteredStore:
    def test_fetch_range(self, pm):
        store = ClusteredRecordStore(
            [((i,), (float(i),)) for i in range(100)], CODEC, pm
        )
        recs = store.fetch_range((10,), (19,))
        assert [r[0] for r in recs] == [float(i) for i in range(10, 20)]

    def test_scan_all_sorted(self, pm):
        items = [((i % 7, i), (float(i),)) for i in range(50)]
        store = ClusteredRecordStore(items, CODEC, pm)
        values = [int(r[0]) for r in store.scan_all()]
        want = [i for _k, (v,) in sorted(items, key=lambda kv: kv[0]) for i in [int(v)]]
        assert values == want

    def test_keys_only_no_io(self, pm):
        store = ClusteredRecordStore(
            [((i,), (float(i),)) for i in range(50)], CODEC, pm
        )
        before = pm.stats.snapshot()
        keys = store.fetch_keys_range((5,), (9,))
        assert keys == [(i,) for i in range(5, 10)]
        assert pm.stats.delta_since(before).physical_reads == 0

    def test_contiguous_range_few_pages(self, pm):
        store = ClusteredRecordStore(
            [((i,), (float(i),)) for i in range(500)], CODEC, pm
        )
        pm.drop_buffer()
        before = pm.stats.snapshot()
        store.fetch_range((0,), (24,))
        narrow = pm.stats.delta_since(before).physical_reads
        assert narrow < store.num_pages / 3


class TestSpatialStore:
    def test_fetch_region(self, pm):
        items = [
            (BoundingBox((float(x), float(y)), (x + 1.0, y + 1.0)), (float(x), float(y)))
            for x in range(10)
            for y in range(10)
        ]
        store = SpatialRecordStore(items, CODEC, pm)
        region = BoundingBox((2.5, 2.5), (4.5, 4.5))
        got = sorted(store.fetch_region(region))
        want = sorted(
            rec for mbr, rec in items if mbr.xy().intersects(region)
        )
        assert got == want

    def test_empty_store(self, pm):
        store = SpatialRecordStore([], CODEC, pm)
        assert store.fetch_region(BoundingBox((0, 0), (1, 1))) == []


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
            # Pages shared by adjacent runs, unsorted within runs.
            ([5, 3, 3, 9, 3, 5, 5, 1, 9, 9], [0, 4, 7, 10]),
            # Empty runs at the start, in the middle and at the end.
            ([2, 2, 7, 0, 7], [0, 0, 3, 3, 5, 5]),
            # One run (no bounds) and nothing at all.
            ([8, 1, 8, 4, 1], None),
            ([], [0, 0]),
        ],
    )
    def test_touch_pages_dedupes_each_run(self, pm, monkeypatch, page_ids, bounds):
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
        want = [
            page
            for start, stop in zip(cuts, cuts[1:])
            for page in np.unique(pages[start:stop]).tolist()
        ]
        assert store.touch_pages(pages, bounds) == len(want)
        # One run read for the whole call, none when nothing is read.
        assert runs == ([want] if want else [])
