"""Buffer frames.

A :class:`Frame` is one page-sized slot of the buffer pool.  Besides the
payload it tracks what the recovery protocols need to know:

* ``dirty`` — the in-buffer copy differs from the on-disk copy;
* ``modifiers`` — ids of transactions with *uncommitted* modifications
  to this page (one under page locking; possibly several under record
  locking, where the paper notes concurrent transactions share pages);
* ``pin_count`` — pinned frames are never evicted.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Frame:
    """One buffer slot.

    A frame is in use while the pool's page table maps a page to it;
    the pool sets every field when it takes a free frame, so a freed
    frame keeps its last values until then.

    Attributes:
        page_id: logical page held (the last one, once free).
        payload: current in-buffer page contents.
        dirty: True when the payload differs from the on-disk copy.
        pin_count: number of outstanding pins; evictable only at zero.
        modifiers: ids of transactions with uncommitted changes here.
    """

    page_id: int | None = None
    payload: bytes = b""
    dirty: bool = False
    pin_count: int = 0
    modifiers: set = field(default_factory=set)

    @property
    def uncommitted(self) -> bool:
        """True when some active transaction has modified this page."""
        return bool(self.modifiers)
