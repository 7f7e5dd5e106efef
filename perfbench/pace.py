"""Reference loop that measures how fast the CPU it shares runs Python.

Usage: ``python3 pace.py COUNTER_FILE``

The CPU a stage runs on is shared with other tenants of the host, and its
throughput for the same code moves by a fifth or more from one second to
the next. run.py starts this loop on the one CPU it pins the stages to, at
the same priority, so the loop and a stage take turns a few milliseconds
at a time and the loop sees the throughput the stage sees. After every
chunk the loop writes the number of chunks done and its own CPU time to
COUNTER_FILE, as three little-endian int64s (chunks, CPU nanoseconds,
chunks); a reader takes the record when the two chunk counts agree.
Chunks per CPU-second over an interval is the CPU's pace in that
interval. The loop ends when it is killed or its parent ends.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import time

import numpy as np

RECORD = struct.Struct("<qqq")
FIELD = struct.Struct("<q")


class Chunk:
    """A fixed amount of work in the three kinds the stages do: interpreter
    work on strings, dicts and ints (parsing, graph folds), small dense
    numpy products (the solvers' iterations on a train fold), and gathers
    from an array larger than the CPU caches (column and index lookups).
    Contention on the host slows the three kinds by different amounts; a
    loop of interpreter work alone slowed more than the stages did, so
    that pacing by it over-corrected, most for ``train``."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((100, 175))  # a train fold's shape
        self.weights = rng.standard_normal(175)
        self.table = rng.integers(0, 1 << 22, size=1 << 22)  # 32 MB
        self.picks = rng.integers(0, 1 << 22, size=4096)

    def __call__(self) -> int:
        counts: dict[str, int] = {}
        total = 0
        for i in range(400):
            key = str(i & 63)
            counts[key] = counts.get(key, 0) + i
            total += (i * i) % 7
        w = self.weights
        for _ in range(6):
            w = w - 0.001 * (self.matrix.T @ np.tanh(self.matrix @ w))
        mask = (1 << 22) - 1
        total += int(self.table[self.picks].sum()) + int(self.table[(self.picks * 7) & mask].sum())
        return total + len(counts) + int(w[0] > 0)


def main() -> int:
    parent = os.getppid()
    chunk = Chunk()
    with open(sys.argv[1], "r+b") as handle:
        counter = mmap.mmap(handle.fileno(), RECORD.size)
    done = 0
    while True:
        chunk()
        done += 1
        cpu = time.clock_gettime_ns(time.CLOCK_PROCESS_CPUTIME_ID)
        FIELD.pack_into(counter, 0, done)
        FIELD.pack_into(counter, 8, cpu)
        FIELD.pack_into(counter, 16, done)
        if done % 256 == 0 and os.getppid() != parent:
            return 0


if __name__ == "__main__":
    sys.exit(main())
