"""XenStore permission model (discovery substrate)."""

import pytest

from repro.xen.xenstore import PermissionError_, XenStore, XenStoreError


@pytest.fixture
def store():
    return XenStore()


class TestBasicOps:
    def test_write_read(self, store):
        store.write(0, "/local/domain/1/name", "vm1")
        assert store.read(0, "/local/domain/1/name") == "vm1"

    def test_read_missing_raises(self, store):
        with pytest.raises(XenStoreError):
            store.read(0, "/nope")

    def test_exists(self, store):
        assert not store.exists(0, "/a")
        store.write(0, "/a/b", "v")
        assert store.exists(0, "/a/b")
        assert store.exists(0, "/a")  # intermediate node

    def test_ls(self, store):
        store.write(0, "/local/domain/1/name", "vm1")
        store.write(0, "/local/domain/2/name", "vm2")
        assert store.ls(0, "/local/domain") == ["1", "2"]

    def test_ls_missing_raises(self, store):
        with pytest.raises(XenStoreError):
            store.ls(0, "/missing")

    def test_rm_subtree(self, store):
        store.write(0, "/local/domain/1/xenloop", "mac")
        store.write(0, "/local/domain/1/name", "vm1")
        store.rm(0, "/local/domain/1")
        assert not store.exists(0, "/local/domain/1")
        assert store.exists(0, "/local/domain")

    def test_rm_missing_is_noop(self, store):
        store.rm(0, "/never/was")

    def test_relative_path_rejected(self, store):
        with pytest.raises(XenStoreError):
            store.write(0, "relative/path", "v")

    def test_overwrite(self, store):
        store.write(0, "/k", "1")
        store.write(0, "/k", "2")
        assert store.read(0, "/k") == "2"


class TestPermissions:
    def test_guest_writes_own_subtree(self, store):
        store.write(3, "/local/domain/3/xenloop", "00:16:3e:00:00:03")
        assert store.read(0, "/local/domain/3/xenloop") == "00:16:3e:00:00:03"

    def test_guest_cannot_write_elsewhere(self, store):
        with pytest.raises(PermissionError_):
            store.write(3, "/local/domain/4/xenloop", "spoof")

    def test_guest_cannot_read_other_guest(self, store):
        """This is WHY discovery must live in Dom0 (paper Sect. 3.2)."""
        store.write(4, "/local/domain/4/xenloop", "mac")
        with pytest.raises(PermissionError_):
            store.read(3, "/local/domain/4/xenloop")

    def test_guest_cannot_list_all_domains(self, store):
        with pytest.raises(PermissionError_):
            store.ls(3, "/local/domain")

    def test_guest_prefix_is_exact(self, store):
        # domid 3 must not be able to touch /local/domain/33
        with pytest.raises(PermissionError_):
            store.write(3, "/local/domain/33/x", "v")

    def test_dom0_reads_everything(self, store):
        store.write(5, "/local/domain/5/xenloop", "m")
        assert store.read(0, "/local/domain/5/xenloop") == "m"

    def test_guest_rm_own(self, store):
        store.write(3, "/local/domain/3/xenloop", "m")
        store.rm(3, "/local/domain/3/xenloop")
        assert not store.exists(0, "/local/domain/3/xenloop")

