"""Host-normalised timing.

The benchmark runs on shared machines whose speed drifts by 1.3-2x, both
over minutes and within a second: the virtual CPU is descheduled (steal
time) and, while it runs, it shares cores and caches with other tenants.
Both move every timing of a run, and a run cannot outlast a slow period.

So each timed call is measured in CPU seconds of this process, which
leaves out the time the CPU was taken away, and scaled by the host's
speed while the call ran. The speed is read by timing a fixed pure-Python
reference task, of the same kind of work as the package (set and list
operations, ``random`` draws, tuple sorting): once right before the call,
once right after it, and every PERIOD_S seconds during it, from a
SIGALRM handler that runs between two bytecodes of the call. Then

    normalised = (cpu_seconds - in-call reference time)
                 * REFERENCE_S * mean(1 / reference time)

over those readings, so a call that ran at half speed throughout reads
the same as one that ran at full speed. A wall-clock timer drives the
readings because a process CPU-time timer would make ``time.process_time``
tick-grained while it is armed.

REFERENCE_S is a fixed constant, near the reference task's fastest time
on the machine the benchmark was first measured on; it sets only the
scale of the figures, which read as seconds of that machine at its
fastest. The reference task lives here, not in the package, so a change
to the package cannot change it.
"""

from __future__ import annotations

import gc
import random
import signal
import time

# CPU seconds of one reference task at the fastest it ran on a 2.0 GHz
# Intel Xeon virtual machine (2 vCPUs, Python 3.11.7); see NOTES.md.
REFERENCE_S = 0.0007

PERIOD_S = 0.02  # readings during a call, one per this many seconds

_N = 300


def _reference_graph():
    rng = random.Random(7)
    adj = {v: set() for v in range(_N)}
    for v in range(1, _N):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(_N // 2):
        a, b = rng.randrange(_N), rng.randrange(_N)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return {v: sorted(s) for v, s in adj.items()}


_NEIGHBORS = _reference_graph()


def reference_task() -> int:
    """A fixed amount of interpreter work: one randomized depth-first
    search of a fixed 300-node graph, then one refinement-like pass that
    sorts the nodes by (depth, degree, neighbor depths)."""
    rng = random.Random(12345)
    nbrs = _NEIGHBORS
    seen = {0}
    stack = [0]
    depth = {0: 0}
    while stack:
        v = stack[-1]
        cand = [w for w in nbrs[v] if w not in seen]
        if not cand:
            stack.pop()
            continue
        w = rng.choice(cand)
        seen.add(w)
        depth[w] = len(stack)
        stack.append(w)
    keys = sorted(
        (depth[v], len(nbrs[v]), tuple(sorted(depth[w] for w in nbrs[v])), v)
        for v in nbrs
    )
    return len(seen) + len(keys)


class HostSpeed:
    """Times calls in host-normalised CPU seconds (see the module notes)."""

    def __init__(self):
        for _ in range(50):  # warm the reference task's code and data
            reference_task()
        self.readings: list[float] = []  # every reading, in order
        self._in_call: list[float] = []
        self._active = False
        self._busy = False
        self._last = self.probe()
        signal.signal(signal.SIGALRM, self._on_alarm)

    def probe(self) -> float:
        """CPU seconds of one reference task. Collection is held off so the
        package's heap, which a collection would walk, cannot slow it."""
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.process_time()
            reference_task()
            return time.process_time() - start
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def _on_alarm(self, signum, frame):
        if self._active and not self._busy:
            self._in_call.append(self.probe())

    def time(self, fn):
        """Call fn(); return (host-normalised seconds, speed factor, result).
        The factor is REFERENCE_S * mean(1 / reading): what a second of this
        call's CPU time is worth at the reference speed."""
        in_call = self._in_call = []
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.process_time()
        try:
            result = fn()
        finally:
            cpu = time.process_time() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._active = False
        after = self.probe()
        readings = [self._last, *in_call, after]
        factor = REFERENCE_S * sum(1.0 / r for r in readings) / len(readings)
        self._last = after
        self.readings.extend(in_call)
        self.readings.append(after)
        return (cpu - sum(in_call)) * factor, factor, result
