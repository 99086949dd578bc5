"""Consistent-hash ring mapping request keys onto worker ids.

The router keys every request by its SQL *fingerprint* (statement
template, literals masked — see :func:`repro.sql.parser.fingerprint_sql`)
so all instances of one prepared statement land on the same worker and
its parse cache stays hot.  A plain ``hash(key) % N`` would remap
almost every key whenever N changes; the classic consistent-hashing
construction bounds that churn: each node owns ``replicas`` virtual
points on a 64-bit ring, a key belongs to the first point at or after
its own hash, and adding or removing one node of N moves only ~1/N of
the key space (the slices adjacent to the node's own points).

Hashing is BLAKE2b-64 — stable across processes and python versions
(``hash()`` is salted per process) so the router, tests, and any future
external balancer agree on placement.
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["DEFAULT_REPLICAS", "HashRing"]

#: Virtual points per node; more points → smoother key distribution at
#: the cost of a (replicas × nodes)-entry sorted table.
DEFAULT_REPLICAS = 96


def _hash64(data: str) -> int:
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent hashing over named nodes with virtual points.

    Not thread-safe by itself: the owning :class:`~repro.fleet.workers.
    WorkerPool` serializes membership changes and publishes the ring
    by atomic reference swap, so readers never see a half-built table.
    """

    def __init__(self, nodes: tuple[str, ...] = (),
                 replicas: int = DEFAULT_REPLICAS) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self._replicas = replicas
        self._points: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    @property
    def replicas(self) -> int:
        """Virtual points each node owns on the ring."""
        return self._replicas

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Add ``node``'s virtual points to the ring (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self._replicas):
            point = _hash64(f"{node}#{replica}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        """Remove ``node``'s virtual points from the ring (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [(point, owner)
                for point, owner in zip(self._points, self._owners)
                if owner != node]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    def lookup(self, key: str) -> str:
        """The node owning ``key`` (first point at or after its hash)."""
        if not self._nodes:
            raise KeyError("hash ring is empty")
        index = bisect.bisect(self._points, _hash64(key))
        if index == len(self._points):
            index = 0  # wrap past the highest point
        return self._owners[index]

    def preference(self, key: str, count: int) -> tuple[str, ...]:
        """Up to ``count`` *distinct* nodes in ring order from ``key``.

        The first entry is :meth:`lookup`'s owner; the rest are the
        successive distinct owners walking clockwise — the siblings a
        router retries on when the owner is unreachable.
        """
        if not self._nodes:
            raise KeyError("hash ring is empty")
        count = min(count, len(self._nodes))
        start = bisect.bisect(self._points, _hash64(key))
        chosen: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner in seen:
                continue
            seen.add(owner)
            chosen.append(owner)
            if len(chosen) == count:
                break
        return tuple(chosen)
