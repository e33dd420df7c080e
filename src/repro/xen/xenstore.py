"""XenStore: hierarchical key-value store with per-domain permissions.

XenLoop's soft-state discovery runs entirely through this store
(Sect. 3.2): each guest's module advertises willingness by writing
``/local/domain/<id>/xenloop``; the Dom0 discovery module -- the only
entity allowed to read across domains -- scans for those entries every
5 seconds; entries vanish when the module unloads, the guest shuts
down, or the guest migrates away.

Permission model (simplified from Xen but preserving what the paper
relies on):

* Dom0 may read/write/list/remove anywhere;
* an unprivileged domain may only operate under its own subtree
  ``/local/domain/<its-id>`` -- in particular it CANNOT read other
  guests' entries, which is exactly why discovery must live in Dom0.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["XenStore", "XenStoreError", "PermissionError_"]

DOM0_ID = 0


class XenStoreError(Exception):
    """Missing path or malformed operation."""


class PermissionError_(XenStoreError):
    """Caller not allowed to touch that path."""


def _split(path: str) -> list[str]:
    if not path.startswith("/"):
        raise XenStoreError(f"XenStore paths are absolute: {path!r}")
    return [part for part in path.split("/") if part]


class _TreeNode:
    __slots__ = ("value", "children")

    def __init__(self):
        self.value: Optional[str] = None
        self.children: dict[str, "_TreeNode"] = {}


class XenStore:
    """Hierarchical key-value store with per-domain permissions."""
    def __init__(self):
        self._root = _TreeNode()

    def snapshot_state(self) -> dict:
        """The full tree as nested ``{value, children}`` dicts."""

        def _node(node: _TreeNode) -> dict:
            return {
                "value": node.value,
                "children": {k: _node(v) for k, v in sorted(node.children.items())},
            }

        return {"tree": _node(self._root)}

    # -- permissions -----------------------------------------------------
    @staticmethod
    def _check(domid: int, path: str) -> None:
        if domid == DOM0_ID:
            return
        own_prefix = f"/local/domain/{domid}"
        if path == own_prefix or path.startswith(own_prefix + "/"):
            return
        raise PermissionError_(f"dom{domid} may not access {path}")

    # -- operations --------------------------------------------------------
    def write(self, domid: int, path: str, value: str) -> None:
        """Write a value (permission-checked)."""
        self._check(domid, path)
        node = self._root
        for part in _split(path):
            node = node.children.setdefault(part, _TreeNode())
        node.value = value

    def read(self, domid: int, path: str) -> str:
        """Read a value (permission-checked; raises if absent)."""
        self._check(domid, path)
        node = self._find(path)
        if node is None or node.value is None:
            raise XenStoreError(f"no value at {path}")
        return node.value

    def exists(self, domid: int, path: str) -> bool:
        """Whether a node exists (permission-checked)."""
        self._check(domid, path)
        return self._find(path) is not None

    def ls(self, domid: int, path: str) -> list[str]:
        """Sorted child names of a directory node (permission-checked)."""
        self._check(domid, path)
        node = self._find(path)
        if node is None:
            raise XenStoreError(f"no directory at {path}")
        return sorted(node.children)

    def rm(self, domid: int, path: str) -> None:
        """Remove the node and its whole subtree (no-op when absent)."""
        self._check(domid, path)
        parts = _split(path)
        if not parts:
            raise XenStoreError("cannot remove the root")
        node = self._root
        for part in parts[:-1]:
            node = node.children.get(part)
            if node is None:
                return
        node.children.pop(parts[-1], None)

    # -- internals -------------------------------------------------------
    def _find(self, path: str) -> Optional[_TreeNode]:
        node = self._root
        for part in _split(path):
            node = node.children.get(part)
            if node is None:
                return None
        return node
