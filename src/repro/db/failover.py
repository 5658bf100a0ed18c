"""Failover primitives for fault-tolerant sharded serving.

The sharded engine (:mod:`repro.db.shard`) promises the paper's
Section 5.4 many-core speedup; this module supplies what that promise
needs once lanes can *fail*: a typed error that never discards
surviving work, an integrity check on every RID list that crosses the
modeled interconnect, and a per-shard circuit breaker so a dead
primary stops eating the deadline budget of every query.

All three are small value types that hold no engine state — the engine
composes them, the chaos harness (:mod:`repro.faults.db`) attacks
them, and the tests exercise them in isolation.
"""

import zlib

import numpy as _np

#: Circuit breaker states, in ``db.shard.<i>.breaker.state`` gauge
#: encoding order: closed = 0, open = 1, half-open = 2.
BREAKER_STATES = ("closed", "open", "half_open")

_M32 = 0xFFFFFFFF


def rid_checksum(rids):
    """Order-sensitive 32-bit checksum of a sorted global RID list.

    CRC-32 over the little-endian 32-bit words of the list.  The
    *sender* computes it before the response crosses the (corruptible)
    channel; the coordinator recomputes on delivery.  Any single
    dropped, flipped, or injected RID changes the value, so corruption
    is *detected* and handled (retransmit, then failover) instead of
    silently merged into the answer.  Lists and ndarrays of the same
    RIDs hash alike.
    """
    if not len(rids):
        return 0
    words = _np.asarray(rids, dtype=_np.int64) & _M32
    return zlib.crc32(words.astype("<u4").tobytes())


class ShardError(RuntimeError):
    """A shard (or its worker task) failed while serving a query batch.

    Unlike the bare ``RuntimeError`` it replaces, a ``ShardError``
    never throws away the work of healthy siblings:

    - ``outcomes`` — per-shard / per-task outcome descriptions (what
      failed, on which host, after how many attempts);
    - ``survivors`` — whatever results *did* arrive before the failure
      (the pooled scatter's prefetched grid, or per-shard RID lists),
      so a caller that wants to degrade instead of die still can;
    - ``shard`` / ``query_index`` — the failing coordinates when the
      failure is attributable to one (shard, query) pair.
    """

    def __init__(self, message, outcomes=(), survivors=None,
                 shard=None, query_index=None):
        super().__init__(message)
        self.outcomes = list(outcomes)
        self.survivors = survivors
        self.shard = shard
        self.query_index = query_index

    def __repr__(self):
        where = ""
        if self.shard is not None:
            where = " shard=%s" % self.shard
        if self.query_index is not None:
            where += " query=%s" % self.query_index
        return "<ShardError%s %s>" % (where, self.args[0])


class CircuitBreaker:
    """Consecutive-failure breaker with a half-open probe.

    Tracks one shard primary's health on the coordinator:

    - **closed** — traffic flows; ``threshold`` *consecutive* failures
      trip it open (any success resets the count).
    - **open** — dispatches are short-circuited (the coordinator goes
      straight to a replica, or fails fast) for ``cooldown`` refused
      dispatches, counted in :meth:`allow` calls so the breaker is
      deterministic under modeled time.
    - **half-open** — after the cooldown, exactly one probe dispatch
      is let through; success closes the breaker, failure reopens it
      for another full cooldown.
    """

    __slots__ = ("threshold", "cooldown", "state", "failures", "skips",
                 "trips", "probes")

    def __init__(self, threshold=3, cooldown=8):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        if cooldown < 1:
            raise ValueError("breaker cooldown must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = "closed"
        self.failures = 0  # consecutive, while closed
        self.skips = 0     # dispatches refused while open
        self.trips = 0     # closed/half-open -> open transitions
        self.probes = 0    # half-open probe dispatches granted

    def allow(self):
        """May the next dispatch go to this primary?

        Returns ``(allowed, probing)``; *probing* is ``True`` only for
        the single half-open probe, whose :meth:`record` decides
        whether the breaker closes again.
        """
        if self.state == "closed":
            return True, False
        if self.state == "open":
            self.skips += 1
            if self.skips >= self.cooldown:
                self.state = "half_open"
                self.probes += 1
                return True, True
            return False, False
        # half_open: one probe is already in flight per allow();
        # further dispatches before its record() stay short-circuited.
        return False, False

    def record(self, ok):
        """Report the outcome of a dispatch :meth:`allow` let through."""
        if ok:
            self.state = "closed"
            self.failures = 0
            self.skips = 0
            return
        if self.state == "half_open":
            self.state = "open"
            self.skips = 0
            self.trips += 1
            return
        self.failures += 1
        if self.failures >= self.threshold:
            self.state = "open"
            self.failures = 0
            self.skips = 0
            self.trips += 1

    def __repr__(self):
        return "<CircuitBreaker %s failures=%d trips=%d>" % (
            self.state, self.failures, self.trips)
