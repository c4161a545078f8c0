"""Machine-speed probe: a fixed reference computation timed through a run.

The reference machine, a VM with 2 Intel Xeon vCPUs, drifts for seconds to
minutes at a time between states that run the same code up to ~1.6x
slower.  Timing a fixed piece of interpreter-bound work between requests
tracks that drift: the latency of a request divided by the probe's time
moves far less than either (within ~5% across fresh processes where raw
times moved 1.6x).  The
benchmark therefore times the probe every ``INTERVAL`` seconds between
requests and scales each latency to the reference speed::

    reported = measured * REFERENCE_SECONDS / (median probe time near it)

so that a reported millisecond is a millisecond on the reference machine in
its fast state.  The probe builds and runs an ``argparse`` parser with
subcommands: pure interpreted Python, as is most of what the package does
per request (argument parsing, JSON decoding into lists, the Jacobi loop).
It is the benchmark's own code, so no change to the package can move it.
"""

from __future__ import annotations

import argparse
import statistics
import time

#: Probe time on the reference machine in its fast state.
REFERENCE_SECONDS = 3.3e-3
INTERVAL = 0.2
#: Probes within this many seconds of a request's start or end set its scale.
WINDOW = 1.0


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def run(self) -> None:
        """Time one probe after an untimed one, which refills the caches and
        the allocator's free lists that the previous request disturbed."""
        self._work()
        start = time.perf_counter()
        self._work()
        self.samples.append((start, time.perf_counter() - start))

    @staticmethod
    def _work() -> None:
        for _ in range(3):
            parser = argparse.ArgumentParser(prog="probe")
            sub = parser.add_subparsers(dest="command", required=True)
            for name in ("a", "b", "c", "d", "e", "f"):
                cmd = sub.add_parser(name, help="subcommand")
                cmd.add_argument("--x", type=float, required=True)
                cmd.add_argument("--y", type=int, default=0)
                cmd.add_argument("--z", action="store_true")
            parser.parse_args(["c", "--x", "1.5", "--y", "3", "--z"])

    def maybe(self) -> None:
        """Probe if the last probe is older than ``INTERVAL``."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= INTERVAL:
            self.run()

    def slowdown(self, start: float, end: float) -> float:
        """Median probe time around ``[start, end]`` over the reference: the
        median of the probes within ``WINDOW`` of it, or of the three
        nearest when fewer lie there."""
        near = [s for t, s in self.samples if start - WINDOW <= t <= end + WINDOW]
        if len(near) < 3:
            by_distance = sorted(self.samples, key=lambda ts: min(abs(ts[0] - start),
                                                                  abs(ts[0] - end)))
            near = [s for _, s in by_distance[:3]]
        return statistics.median(near) / REFERENCE_SECONDS
