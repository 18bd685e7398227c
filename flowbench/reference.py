"""A fixed reference computation that measures the machine's current speed.

The host these figures come from gives the benchmark a share of a CPU whose
speed drifts: the same program runs up to twice as slowly in phases lasting
from under a second to minutes, and CPU time tracks wall time through them,
so the slowdown is the processor's, not waiting.  No statistic of a run
removes phases longer than the run.  So timed work is interleaved with
blocks of this reference, run on the same thread, and each timed call's
time is scaled to the speed at which one round takes ``ROUND_S``:

    normalised = measured * ROUND_S / mean(block before, block after)

where a block's figure is the median time of its rounds.  A block runs
before the first call and again once the calls since the last block add up
to ``BLOCK_EVERY_S``, or when other work has run since.  A change to the
program moves the measured time and leaves the blocks alone, so normalised
times move with the program by the same share.  The reference is the kind of
work the program does: breadth-first searches over an adjacency list, dicts
of each ball's sorted adjacency, and a scan of records that keeps those
inside a ball.  Its data is built once from a fixed seed and is the same in
every run; it adds about 3 MiB to the run's peak memory.
"""

from __future__ import annotations

import random
import statistics
import time

# The median round time on the reference machine in a fast phase; normalised
# times read as times at that speed.
ROUND_S = 0.001
BLOCK_ROUNDS = 7  # the median discards the first round, cold after a long call
BLOCK_EVERY_S = 0.1
# A gap longer than this since the last timed call or block means other work
# ran: block again.
_FRESH_S = 0.001

_NODES = 4000
_EDGES = 8000
_STARTS = (11, 1213, 2417, 3607)
_RADIUS = 3
# The scanned records: together larger than one core's L2 cache, so a scan,
# like the program's scans of a whole graph, feels how fast the shared cache
# and memory are.  Each round scans the next quarter of them.
_RECORDS = 20000
_PARTS = 4


class _Record:
    __slots__ = ("id", "a", "b")


class Reference:
    def __init__(self) -> None:
        rng = random.Random(20081005)
        adj: list[list[int]] = [[] for _ in range(_NODES)]
        for _ in range(_EDGES):
            a, b = rng.randrange(_NODES), rng.randrange(_NODES)
            adj[a].append(b)
            adj[b].append(a)
        self.adj = adj
        self.records = []
        for i in range(_RECORDS):
            rec = _Record()
            rec.id, rec.a, rec.b = i, rng.randrange(_NODES), rng.randrange(_NODES)
            self.records.append(rec)
        self.part = 0
        self.blocks: list[float] = []  # each block's median round time, in order
        self.since_block = 0.0  # timed seconds since the last block
        self.block()  # also warms the caches and the interpreter
        self.blocks.clear()
        self.block()

    def _work(self) -> int:
        adj = self.adj
        total = 0
        for src in _STARTS:
            depth = {src: 0}
            frontier = [src]
            for r in range(_RADIUS):
                nxt = []
                for u in frontier:
                    for v in adj[u]:
                        if v not in depth:
                            depth[v] = r + 1
                            nxt.append(v)
                frontier = nxt
            ball = {u: sorted(v for v in adj[u] if v in depth) for u in depth}
            for u, vs in ball.items():
                total += (u * 31 + len(vs) * depth[u]) & 0xFFFF
        # A scan like an induced subgraph's: keep the records with both ends
        # in the last ball.
        self.part = (self.part + 1) % _PARTS
        kept = [rec.id for rec in self.records[self.part::_PARTS]
                if rec.a in depth and rec.b in depth]
        return total + len(kept)

    def block(self) -> None:
        times = []
        for _ in range(BLOCK_ROUNDS):
            start = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - start)
        self.blocks.append(statistics.median(times))
        self.since_block = 0.0
        self.idle_since = time.perf_counter()

    def timed(self, fn, *args) -> tuple[float, int, object]:
        """Run ``fn(*args)``; return (measured s, block index, result).

        ``normalised`` turns the first two into a normalised time once the
        block after the call has run.
        """
        if time.perf_counter() - self.idle_since > _FRESH_S:
            self.block()
        before = len(self.blocks) - 1
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        self.since_block += elapsed
        if self.since_block >= BLOCK_EVERY_S:
            self.block()
        self.idle_since = time.perf_counter()
        return elapsed, before, out

    def close(self) -> None:
        """Run the block after the latest calls, before other work starts."""
        if self.since_block:
            self.block()

    def normalised(self, elapsed: float, before: int) -> float:
        self.close()
        return elapsed * ROUND_S / ((self.blocks[before] + self.blocks[before + 1]) / 2)
