"""Buffer manager: frames and the LRU pool.

Implements STEAL/NO-STEAL and FORCE/NO-FORCE from the Haerder-Reuter
taxonomy the paper's Section 2 builds on.
"""

from .frame import Frame
from .pool import BufferPool, BufferStats

__all__ = [
    "Frame",
    "BufferPool",
    "BufferStats",
]
