"""Duplicate-suppression tables for route discovery and error dissemination.

:class:`SeenTable` is a bounded FIFO set with per-entry lifetime; DSR uses
three instances — seen route requests, seen wider-error broadcasts, and
recently sent gratuitous replies.  The store is a plain dict in insertion
order: a re-insert deletes then inserts, eviction deletes the first key.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional


class SeenTable:
    """Remembers keys for a limited time, with FIFO eviction when full."""

    def __init__(self, capacity: int = 1024, lifetime: Optional[float] = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if lifetime is not None and lifetime <= 0:
            raise ValueError("lifetime must be positive")
        self.capacity = capacity
        self.lifetime = lifetime
        self._entries: Dict[Hashable, float] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def seen(self, key: Hashable, now: float) -> bool:
        """True if ``key`` was inserted and has not expired."""
        stamp = self._entries.get(key)
        if stamp is None:
            return False
        if self.lifetime is not None and now - stamp > self.lifetime:
            del self._entries[key]
            return False
        return True

    def insert(self, key: Hashable, now: float) -> None:
        entries = self._entries
        if key in entries:
            del entries[key]  # re-inserted at the young end
        elif len(entries) >= self.capacity:
            del entries[next(iter(entries))]
        entries[key] = now

    def check_and_insert(self, key: Hashable, now: float) -> bool:
        """Atomically: was it new?  (Inserts either way.)"""
        new = not self.seen(key, now)
        self.insert(key, now)
        return new


class RequestTable(SeenTable):
    """Seen (originator, request_id) pairs for route-request flooding."""

    def __init__(self, capacity: int = 1024, lifetime: Optional[float] = 30.0):
        super().__init__(capacity=capacity, lifetime=lifetime)
