"""Ruby-equivalent cache substrate: private caches, sliced LLC, memory."""

from repro.cache.coherence import DirState, PrivState
from repro.cache.llc import LLCSlice
from repro.cache.memory import MemoryController
from repro.cache.mshr import MSHR, MSHRFile
from repro.cache.private_cache import PrivateCache
from repro.cache.sram import CacheArray

__all__ = [
    "CacheArray",
    "DirState",
    "LLCSlice",
    "MemoryController",
    "MSHR",
    "MSHRFile",
    "PrivState",
    "PrivateCache",
]
