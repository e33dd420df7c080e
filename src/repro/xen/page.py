"""Machine pages and shared regions.

A :class:`Page` wraps a 4 KiB byte buffer (a ``"B"``-format
memoryview).  A :class:`SharedRegion` is a physically contiguous run
of pages over one flat ``bytearray``, each page a slice of it -- the
XenLoop FIFOs are laid out over such a region, and when a peer domain
*maps* the region's pages through the grant table it sees the very
same buffers, so reads and writes genuinely share memory exactly as
mapped grant pages do on real Xen.
"""

from __future__ import annotations

__all__ = ["PAGE_SIZE", "Page", "SharedRegion"]

PAGE_SIZE = 4096


class Page:
    """One 4 KiB machine page."""

    __slots__ = ("buf", "owner", "region")

    def __init__(self, owner: int, buf: memoryview | None = None, region: "SharedRegion | None" = None):
        if buf is None:
            buf = memoryview(bytearray(PAGE_SIZE))
        elif (
            not isinstance(buf, memoryview)
            or buf.format != "B"
            or buf.shape != (PAGE_SIZE,)
            or buf.readonly
        ):
            raise ValueError("page buffer must be a writable 4096-byte 'B'-format memoryview")
        self.buf = buf
        #: domid of the owning domain.
        self.owner = owner
        #: back-reference when the page is part of a SharedRegion.
        self.region = region

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Page owner=dom{self.owner}>"


class SharedRegion:
    """A contiguous run of pages with a single flat backing buffer."""

    def __init__(self, owner: int, n_pages: int):
        if n_pages < 1:
            raise ValueError("region needs at least one page")
        #: the whole region as one ``"B"``-format memoryview.
        self.array = memoryview(bytearray(n_pages * PAGE_SIZE))
        self.pages = [
            Page(owner, self.array[i * PAGE_SIZE : (i + 1) * PAGE_SIZE], region=self)
            for i in range(n_pages)
        ]

    @property
    def n_pages(self) -> int:
        """Number of pages in the region."""
        return len(self.pages)

    @property
    def size(self) -> int:
        """Region size in bytes."""
        return len(self.array)
