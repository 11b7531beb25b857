"""The simulated proxy cache: storage, hit semantics, and eviction.

Hit semantics follow Section 1.1 of the paper exactly:

* A **hit** is a match on both URL and size.  (Traces carry no reliable
  modification times, so a size change is the signal that the document was
  modified; the cached copy is then inconsistent and the access is a miss
  that replaces the copy.)
* Removal is **on demand**: when an incoming document does not fit, cached
  documents are removed in the policy's sort order until free space equals
  or exceeds the incoming size.
* Documents larger than the whole cache are served but not stored (the
  paper is silent on this case; the decision is recorded in DESIGN.md).

Eviction order is maintained by one of two interchangeable indexes:
:class:`HeapIndex` (a lazy-invalidation heap, O(log n) per operation — the
production choice, embodying the paper's Section 1.3 argument that keeping
the list sorted makes on-demand removal cheap) and :class:`NaiveIndex`
(re-sorts on demand, O(n log n) — the obviously-correct reference that
property tests compare against).
"""

from __future__ import annotations

import enum
import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.entry import CacheEntry
from repro.core.keys import SIZE
from repro.core.policy import DynamicPolicy, KeyPolicy, RemovalPolicy
from repro.trace.record import Request

__all__ = [
    "AccessOutcome",
    "AccessResult",
    "EvictionIndex",
    "HeapIndex",
    "NaiveIndex",
    "SimCache",
]


class AccessOutcome(enum.Enum):
    """Classification of one cache access (Section 1.1 semantics)."""

    HIT = "hit"
    MISS = "miss"
    #: URL was cached but with a different size: the document was modified,
    #: so the copy is inconsistent.  Counts as a miss; the copy is replaced.
    MISS_MODIFIED = "miss_modified"
    #: Document exceeds the whole cache capacity; served but never stored.
    MISS_TOO_LARGE = "miss_too_large"

    @property
    def is_hit(self) -> bool:
        return self is AccessOutcome.HIT


@dataclass
class AccessResult:
    """Outcome of one access, with any entries evicted to make room."""

    outcome: AccessOutcome
    request: Request
    evicted: List[CacheEntry] = field(default_factory=list)

    @property
    def is_hit(self) -> bool:
        return self.outcome.is_hit


class EvictionIndex:
    """Maintains policy order over the live entries of one cache."""

    def __init__(self, policy: KeyPolicy, entries: Dict[str, CacheEntry]) -> None:
        self.policy = policy
        self._entries = entries

    def add(self, entry: CacheEntry) -> None:
        raise NotImplementedError

    def discard(self, entry: CacheEntry) -> None:
        raise NotImplementedError

    def on_touch(self, entry: CacheEntry) -> None:
        raise NotImplementedError

    def pop_head(self) -> CacheEntry:
        """Remove and return the entry first in removal order."""
        raise NotImplementedError


class NaiveIndex(EvictionIndex):
    """Reference index: full re-sort at every eviction."""

    def add(self, entry: CacheEntry) -> None:  # noqa: D102 - trivial
        pass

    def discard(self, entry: CacheEntry) -> None:  # noqa: D102 - trivial
        pass

    def on_touch(self, entry: CacheEntry) -> None:  # noqa: D102 - trivial
        pass

    def pop_head(self) -> CacheEntry:
        if not self._entries:
            raise LookupError("cannot evict from an empty cache")
        head = min(self._entries.values(), key=self.policy.sort_value)
        return head


class HeapIndex(EvictionIndex):
    """Heap with lazy invalidation.

    Every (re)insertion and every touch of a mutable-key entry pushes a
    record stamped with the entry's current version; stale records are
    discarded when they surface at the heap top.  A monotonically increasing
    sequence number makes heap tuples totally ordered without ever comparing
    entries themselves.
    """

    def __init__(self, policy: KeyPolicy, entries: Dict[str, CacheEntry]) -> None:
        super().__init__(policy, entries)
        self._heap: List[Tuple[Tuple[float, ...], int, str]] = []
        self._latest: Dict[str, Tuple[float, ...]] = {}
        self._seq = 0

    def _push(self, entry: CacheEntry) -> None:
        self._seq += 1
        value = self.policy.sort_value(entry)
        self._latest[entry.url] = value
        heapq.heappush(self._heap, (value, self._seq, entry.url))

    def add(self, entry: CacheEntry) -> None:
        self._push(entry)

    def discard(self, entry: CacheEntry) -> None:
        # The heap record itself dies lazily when it reaches the top.
        self._latest.pop(entry.url, None)

    def on_touch(self, entry: CacheEntry) -> None:
        if self.policy.mutable:
            self._push(entry)

    def pop_head(self) -> CacheEntry:
        while self._heap:
            value, _, url = heapq.heappop(self._heap)
            if self._latest.get(url) != value:
                continue  # stale record (touched, evicted, or replaced)
            entry = self._entries.get(url)
            if entry is not None:
                return entry
        raise LookupError("cannot evict from an empty cache")


class SimCache:
    """A (finite or infinite) proxy cache with pluggable removal policy.

    Args:
        capacity: cache size in bytes, or ``None`` for the infinite cache of
            Experiment 1.
        policy: a :class:`~repro.core.policy.KeyPolicy` (sorted-index
            eviction) or :class:`~repro.core.policy.DynamicPolicy`
            (per-eviction victim choice).  Defaults to SIZE — the paper's
            winner.
        seed: seed for the per-entry random tie-break stamps.
        use_heap_index: select :class:`HeapIndex` (default) or
            :class:`NaiveIndex` for key policies.
        latency_estimator: optional ``f(request) -> seconds`` filled into
            entries for the LATENCY extension key.
        ttl_assigner: optional ``f(request, now) -> expiry_time`` for the
            TTL extension key.
        on_evict: optional callback invoked with each evicted entry (used,
            e.g., to hand documents down a cache hierarchy).
    """

    def __init__(
        self,
        capacity: Optional[int],
        policy: Optional[RemovalPolicy] = None,
        seed: int = 0,
        use_heap_index: bool = True,
        latency_estimator: Optional[Callable[[Request], float]] = None,
        ttl_assigner: Optional[Callable[[Request, float], float]] = None,
        on_evict: Optional[Callable[[CacheEntry], None]] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None for infinite)")
        self.capacity = capacity
        self.policy = policy if policy is not None else KeyPolicy([SIZE])
        self._entries: Dict[str, CacheEntry] = {}
        self.used_bytes = 0
        self.max_used_bytes = 0
        self.eviction_count = 0
        self.evicted_bytes = 0
        self._rng = random.Random(seed)
        self._latency_estimator = latency_estimator
        self._ttl_assigner = ttl_assigner
        self._on_evict = on_evict
        self._index: Optional[EvictionIndex]
        if capacity is None or isinstance(self.policy, DynamicPolicy):
            self._index = None
        elif isinstance(self.policy, KeyPolicy):
            index_cls = HeapIndex if use_heap_index else NaiveIndex
            self._index = index_cls(self.policy, self._entries)
        else:
            raise TypeError(
                f"unsupported policy type: {type(self.policy).__name__}"
            )

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, url: str) -> bool:
        return url in self._entries

    def get(self, url: str) -> Optional[CacheEntry]:
        """The live entry for a URL, or ``None``."""
        return self._entries.get(url)

    def entries(self) -> Iterator[CacheEntry]:
        """Iterate over live entries (no particular order)."""
        return iter(self._entries.values())

    @property
    def free_bytes(self) -> Optional[int]:
        """Free space, or ``None`` for an infinite cache."""
        if self.capacity is None:
            return None
        return self.capacity - self.used_bytes

    def removal_order(self) -> List[CacheEntry]:
        """Current entries in removal order (diagnostics; O(n log n))."""
        if isinstance(self.policy, KeyPolicy):
            return self.policy.order(self._entries.values())
        raise TypeError("removal_order is only defined for key policies")

    def stats_snapshot(self) -> Dict[str, Optional[int]]:
        """Occupancy and eviction counters as one plain dict — the shape
        the observability layer reports (simulator events, the proxy's
        ``GET /metrics`` store gauges)."""
        return {
            "capacity": self.capacity,
            "used_bytes": self.used_bytes,
            "max_used_bytes": self.max_used_bytes,
            "documents": len(self._entries),
            "eviction_count": self.eviction_count,
            "evicted_bytes": self.evicted_bytes,
        }

    def set_phase_timer(self, timer) -> None:
        """Attach (or with ``None`` detach) a per-access phase timer —
        a :class:`repro.obs.profile.CachePhaseTimer`.

        Instance attributes shadow :meth:`access`, :meth:`_make_room`
        (the ``evict`` phase) and :meth:`_insert` (``admit``) with
        wrappers that read the timer's clock around the very methods an
        untimed cache runs, so timing can never change results.
        ``lookup`` is the whole access minus the evict and admit seconds
        measured inside it.  The wrappers bind the instance's own
        ``access``, so a subclass override stays in the path; attaching
        a second timer replaces the first."""
        for name in ("access", "_make_room", "_insert"):
            self.__dict__.pop(name, None)
        if timer is None:
            return
        clock = timer.clock
        observe = timer.observe
        access = self.access
        inner = 0.0  # evict + admit seconds inside the current access

        def timed_access(request: Request, now: Optional[float] = None):
            nonlocal inner
            inner = 0.0
            start = clock()
            result = access(request, now)
            observe("lookup", clock() - start - inner)
            return result

        def seam(method, phase: str):
            def timed(*args):
                nonlocal inner
                start = clock()
                out = method(*args)
                seconds = clock() - start
                inner += seconds
                observe(phase, seconds)
                return out
            return timed

        self.access = timed_access
        self._make_room = seam(self._make_room, "evict")
        self._insert = seam(self._insert, "admit")

    # -- the Section 1.1 access path ------------------------------------------

    def access(self, request: Request, now: Optional[float] = None) -> AccessResult:
        """Process one valid trace request against the cache."""
        if now is None:
            now = request.timestamp
        entry = self._entries.get(request.url)
        if entry is not None:
            if entry.size == request.size:
                entry.touch(now)
                if self._index is not None:
                    self._index.on_touch(entry)
                self.policy.on_hit(entry)
                return AccessResult(AccessOutcome.HIT, request)
            # Modified document: the cached copy is inconsistent.
            self._remove_entry(entry, count_as_eviction=False)
            result = self._admit(request, now)
            result.outcome = AccessOutcome.MISS_MODIFIED
            return result
        return self._admit(request, now)

    def remove(self, url: str) -> Optional[CacheEntry]:
        """Explicitly drop a URL (consistency invalidation, tests)."""
        entry = self._entries.get(url)
        if entry is not None:
            self._remove_entry(entry, count_as_eviction=False)
        return entry

    # -- internals -------------------------------------------------------------

    def _admit(self, request: Request, now: float) -> AccessResult:
        size = request.size
        if self.capacity is not None and size > self.capacity:
            return AccessResult(AccessOutcome.MISS_TOO_LARGE, request)
        evicted = self._make_room(size, now)
        self._insert(request, now)
        return AccessResult(AccessOutcome.MISS, request, evicted)

    def _insert(self, request: Request, now: float) -> None:
        """Build the entry for a missed request and index it (the
        caller has made room)."""
        entry = CacheEntry(
            url=request.url,
            size=request.size,
            etime=now,
            atime=now,
            nref=1,
            doc_type=request.media_type,
            random_stamp=self._rng.random(),
            latency=(
                self._latency_estimator(request)
                if self._latency_estimator is not None else 0.0
            ),
            expires_at=(
                self._ttl_assigner(request, now)
                if self._ttl_assigner is not None else None
            ),
        )
        self._entries[entry.url] = entry
        self.used_bytes += entry.size
        self.max_used_bytes = max(self.max_used_bytes, self.used_bytes)
        if self._index is not None:
            self._index.add(entry)
        self.policy.on_admit(entry)

    def _make_room(self, size: int, now: float) -> List[CacheEntry]:
        """Evict in policy order until ``size`` bytes fit (Section 1.2:
        "removes zero or more documents from the head of the sorted list
        until the amount of free cache space equals or exceeds the incoming
        document size")."""
        if self.capacity is None:
            return []
        evicted: List[CacheEntry] = []
        while self.capacity - self.used_bytes < size:
            victim = self._next_victim(size, now)
            self._remove_entry(victim, count_as_eviction=True)
            evicted.append(victim)
            if self._on_evict is not None:
                self._on_evict(victim)
        return evicted

    def _next_victim(self, incoming_size: int, now: float) -> CacheEntry:
        if self._index is not None:
            return self._index.pop_head()
        if isinstance(self.policy, DynamicPolicy):
            if not self._entries:
                raise LookupError("cannot evict from an empty cache")
            return self.policy.choose_victim(
                list(self._entries.values()), incoming_size, now
            )
        raise TypeError("finite cache requires an eviction mechanism")

    def _remove_entry(self, entry: CacheEntry, count_as_eviction: bool) -> None:
        live = self._entries.pop(entry.url, None)
        if live is None:
            return
        live.version += 1  # invalidate any heap records
        self.used_bytes -= live.size
        if self._index is not None:
            self._index.discard(live)
        self.policy.on_remove(live)
        if count_as_eviction:
            self.eviction_count += 1
            self.evicted_bytes += live.size
