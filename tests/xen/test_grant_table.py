"""Grant-table semantics: the invariants XenLoop's bootstrap relies on."""

import pytest

from repro.xen.grant_table import GrantError, GrantTable
from repro.xen.page import Page, SharedRegion


@pytest.fixture
def table():
    return GrantTable(domid=1)


@pytest.fixture
def page():
    return Page(owner=1)


class TestAccessGrants:
    def test_grant_and_map(self, table, page):
        gref = table.grant_foreign_access(2, page)
        mapped = table.map_grant(gref, 2)
        assert mapped is page

    def test_mapped_page_shares_memory(self, table):
        region = SharedRegion(1, 2)
        gref = table.grant_foreign_access(2, region.pages[0])
        mapped = table.map_grant(gref, 2)
        region.pages[0].buf[10] = 0xAB
        assert mapped.buf[10] == 0xAB

    def test_wrong_domain_cannot_map(self, table, page):
        gref = table.grant_foreign_access(2, page)
        with pytest.raises(GrantError):
            table.map_grant(gref, 3)

    def test_self_grant_rejected(self, table, page):
        with pytest.raises(GrantError):
            table.grant_foreign_access(1, page)

    def test_unknown_gref_rejected(self, table):
        with pytest.raises(GrantError):
            table.map_grant(999, 2)

    def test_revoke_unmapped(self, table, page):
        gref = table.grant_foreign_access(2, page)
        table.end_foreign_access(gref)
        with pytest.raises(GrantError):
            table.map_grant(gref, 2)

    def test_revoke_while_mapped_fails(self, table, page):
        gref = table.grant_foreign_access(2, page)
        table.map_grant(gref, 2)
        with pytest.raises(GrantError, match="still mapped"):
            table.end_foreign_access(gref)

    def test_unmap_then_revoke(self, table, page):
        gref = table.grant_foreign_access(2, page)
        table.map_grant(gref, 2)
        table.unmap_grant(gref, 2)
        table.end_foreign_access(gref)
        assert table.active_entries == 0

    def test_unmap_not_mapped_raises(self, table, page):
        gref = table.grant_foreign_access(2, page)
        with pytest.raises(GrantError):
            table.unmap_grant(gref, 2)

    def test_grefs_are_unique(self, table, page):
        grefs = {table.grant_foreign_access(2, Page(owner=1)) for _ in range(100)}
        assert len(grefs) == 100


class TestBulkRevoke:
    def test_revoke_all_for_peer(self, table):
        for _ in range(5):
            table.grant_foreign_access(2, Page(owner=1))
        table.grant_foreign_access(3, Page(owner=1))
        assert table.revoke_all_for(2) == 5
        assert table.active_entries == 1

    def test_revoke_all_mapped_needs_force(self, table, page):
        gref = table.grant_foreign_access(2, page)
        table.map_grant(gref, 2)
        with pytest.raises(GrantError):
            table.revoke_all_for(2)
        assert table.revoke_all_for(2, force=True) == 1

    def test_stats(self, table, page):
        gref = table.grant_foreign_access(2, page)
        table.map_grant(gref, 2)
        assert table.grants_issued == 1
        assert table.maps == 1
