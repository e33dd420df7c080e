"""Page and SharedRegion invariants."""

import pytest

from repro.xen.page import PAGE_SIZE, Page, SharedRegion


class TestPage:
    def test_default_buffer(self):
        p = Page(owner=1)
        assert p.buf.shape == (PAGE_SIZE,)
        assert p.buf.format == "B"
        assert not any(p.buf)

    def test_bad_buffer_rejected(self):
        with pytest.raises(ValueError):
            Page(owner=1, buf=memoryview(bytearray(10)))
        with pytest.raises(ValueError):
            Page(owner=1, buf=memoryview(bytearray(PAGE_SIZE)).cast("c"))  # 4096 chars, not bytes
        with pytest.raises(ValueError):
            Page(owner=1, buf=memoryview(bytes(PAGE_SIZE)))  # read-only
        with pytest.raises(ValueError):
            Page(owner=1, buf=bytearray(PAGE_SIZE))  # not a view


class TestSharedRegion:
    def test_pages_view_backing_array(self):
        region = SharedRegion(1, 4)
        region.array[PAGE_SIZE + 5] = 42
        assert region.pages[1].buf[5] == 42
        region.pages[3].buf[0] = 7
        assert region.array[3 * PAGE_SIZE] == 7

    def test_sizes(self):
        region = SharedRegion(1, 3)
        assert region.n_pages == 3
        assert region.size == 3 * PAGE_SIZE

    def test_ownership(self):
        region = SharedRegion(7, 2)
        assert all(p.owner == 7 for p in region.pages)

    def test_zero_pages_rejected(self):
        with pytest.raises(ValueError):
            SharedRegion(1, 0)

    def test_region_backref(self):
        region = SharedRegion(1, 2)
        assert all(p.region is region for p in region.pages)
