"""Unit tests for record serialization and pagination."""

import pytest

from repro.errors import StorageError
from repro.storage.records import pack_page, paginate, unpack_page


class TestPageCodec:
    def test_roundtrip(self):
        records = [b"alpha", b"", b"gamma" * 10]
        page = pack_page(records, page_size=512)
        assert unpack_page(page) == records

    def test_overflow_rejected(self):
        with pytest.raises(StorageError):
            pack_page([b"x" * 100], page_size=64)


class TestPaginate:
    def test_preserves_order(self):
        records = [bytes([i]) * 10 for i in range(50)]
        pages = paginate(records, page_size=128)
        flattened = [r for page in pages for r in page]
        assert flattened == records

    def test_respects_page_size(self):
        records = [b"x" * 30 for _ in range(40)]
        for page in paginate(records, page_size=128):
            packed = pack_page(page, page_size=128)
            assert len(packed) <= 128

    def test_single_huge_record_rejected(self):
        with pytest.raises(StorageError):
            paginate([b"x" * 1000], page_size=128)

    def test_empty_input(self):
        assert paginate([], page_size=128) == []
