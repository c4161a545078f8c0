"""Benchmark of the eigenschaft CLI, served in-process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: the next request goes to
``eigenschaft.cli.main(argv)`` only after the previous one returned.  Inputs
are files generated from ``--seed`` during set-up; stdout is captured and
every response is checked against an independent numpy oracle outside the
timed region.  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` serves the request list in three passes, each in its own
order, and reports the end-to-end metrics over each request's fastest pass.
``--trace 1`` serves it once untraced and twice traced, and reports the
per-layer metrics, the tracing overhead and whether the exact counts repeat
between the two traced passes.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

#: One client and matrices of n <= 64: a single BLAS thread keeps the
#: measurement steady and stays within any core count.
BLAS_THREADS = "1"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Rounds of each workload's mix served in a run of ``REFERENCE_SECONDS``;
#: other ``--seconds`` scale the count.  The request count thus depends only
#: on ``--seconds``, never on the code's speed, and the median and tail ranks
#: fall where the mixes were designed to put them (``perfbench/README.md``).
REFERENCE_SECONDS = 20.0
ROUNDS = {"spectral": 1, "analysis": 3, "sweep": 2}
#: Each request is served once per pass and keeps its fastest scaled
#: latency, so a short slow spell of the machine costs one pass, not the
#: result (see ``speed.py``).
PASSES = 3
SETUP_REPEATS = 5
TAIL_BEYOND = 10

#: Runs in a fresh interpreter: times the import and one warm-up request of
#: each kind, then times the speed probe in that same process.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import contextlib, io, json
import eigenschaft.cli as cli
codes = []
sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
seconds = time.perf_counter() - t0
import speed
probe = speed.SpeedProbe()
for _ in range(7):
    probe.run()
slowdown = probe.slowdown(float("-inf"), float("inf"))
print(json.dumps({"seconds": seconds, "slowdown": slowdown, "codes": codes}))
"""


class Outcome:
    """One served request.  ``seconds`` is its latency scaled to the
    reference machine speed, ``raw`` the latency as the clock read it."""

    __slots__ = ("label", "seconds", "status", "message", "start", "raw")

    def __init__(self, label: str, seconds: float, status: str, message: str = "",
                 start: float = 0.0):
        self.label, self.seconds, self.status, self.message = label, seconds, status, message
        self.start, self.raw = start, seconds


def serve(cli, requests, oracle, probe, tracer=None, verdicts=None,
          order=None) -> list[Outcome]:
    """Closed loop: call, time, then verify outside the timed region.

    Requests are served in ``order`` (positions in ``requests``, default as
    listed); outcomes come back by position.  ``verdicts`` maps a position
    to the digest of a response already checked and its verdict, so that a
    byte-identical response in a later pass is not parsed again.  Between
    requests the speed ``probe`` runs, and each latency is scaled by it.
    """
    verdicts = {} if verdicts is None else verdicts
    outcomes = [None] * len(requests)
    for index in range(len(requests)) if order is None else order:
        req = requests[index]
        gc.collect()
        probe.maybe()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = index
            tracer.counts["serialize.bytes_in"] += req.in_bytes
        code, raised = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(req.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed request, not a crashed run
                raised = exc
            seconds = time.perf_counter() - start
        if raised is not None:
            outcomes[index] = Outcome(req.label, seconds, "error", f"raised {raised!r}", start)
            continue
        if code != 0:
            outcomes[index] = Outcome(req.label, seconds, "error",
                                      f"exit {code}: {err.getvalue().strip()[:200]}", start)
            continue
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).digest()
        known = verdicts.get(index)
        if known is None or known[0] != digest:
            status, message = "ok", ""
            try:
                req.check(text)
            except oracle.Miss as exc:
                status, message = "miss", str(exc)
            except (oracle.Wrong, LookupError, TypeError, ValueError, AttributeError) as exc:
                status, message = "wrong", str(exc)  # a malformed payload
            known = verdicts[index] = (digest, status, message)
        outcomes[index] = Outcome(req.label, seconds, known[1], known[2], start)
        del out, err, text
    probe.run()
    for o in outcomes:
        o.seconds = o.raw / probe.slowdown(o.start, o.start + o.raw)
    return outcomes


def fastest(passes: list[list[Outcome]]) -> list[Outcome]:
    """Per request: the fastest latency over the passes, and the first
    failure of any pass (a request fails if any of its passes failed)."""
    merged = []
    for runs in zip(*passes):
        bad = [o for o in runs if o.status != "ok"]
        first = bad[0] if bad else runs[0]
        best = min(runs, key=lambda o: o.seconds)
        out = Outcome(first.label, best.seconds, first.status, first.message, best.start)
        out.raw = best.raw
        merged.append(out)
    return merged


def measure_setup(src: str, warmups) -> float:
    """Median over fresh interpreters of importing ``eigenschaft.cli`` and
    serving one warm-up request of each kind, each scaled by the speed
    probe timed in the same interpreter afterwards."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, here)))
    argvs = json.dumps([list(req.argv) for req in warmups])
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, argvs], env=env,
                              capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-400:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if any(code != 0 for code in result["codes"]):
            raise RuntimeError(f"warm-up requests exited {result['codes']}")
        times.append(result["seconds"] / result["slowdown"])
    return statistics.median(times)


def tail_index(count: int) -> int:
    """Index, in ascending order, of the highest-ranked sample that still
    has ``TAIL_BEYOND`` samples above it (the largest one when fewer)."""
    return max(count - 1 - TAIL_BEYOND, 0)


def describe_rank(ranked: list[Outcome], index: int) -> str:
    """Class of the sample at ``index`` and how far the neighbouring ranks
    stray from it: a value near 1 means the rank sits inside one class."""
    k = max(2, len(ranked) // 50)
    lo, hi = ranked[max(index - k, 0)], ranked[min(index + k, len(ranked) - 1)]
    return (f"{ranked[index].label} (ranks +-{k}: {lo.label} .. {hi.label}, "
            f"latency ratio {hi.seconds / lo.seconds:.2f})")


def end_to_end(outcomes: list[Outcome], setup_s: float) -> dict:
    ranked = sorted(outcomes, key=lambda o: o.seconds)
    ok = sum(o.status == "ok" for o in outcomes)
    busy = sum(o.seconds for o in outcomes)
    raw = sum(o.raw for o in outcomes)
    print(f"  unscaled: {ok / raw:.4f} requests/s, clock {raw / busy:.3f}x the reference speed's",
          file=sys.stderr)
    tail = tail_index(len(ranked))
    median_ms = statistics.median(o.seconds for o in outcomes) * 1e3
    print(f"  p50 {median_ms:.3f} ms at {describe_rank(ranked, len(ranked) // 2)}",
          file=sys.stderr)
    print(f"  tail p{100.0 * (tail + 1) / len(ranked):.2f} (sample {tail + 1} of "
          f"{len(ranked)}, {len(ranked) - 1 - tail} beyond) "
          f"{ranked[tail].seconds * 1e3:.3f} ms at {describe_rank(ranked, tail)}",
          file=sys.stderr)
    return {
        "throughput_rps": (ok / busy, "1/s"),
        "latency_p50_ms": (median_ms, "ms"),
        "latency_tail_ms": (ranked[tail].seconds * 1e3, "ms"),
        "ok_ratio": (ok / len(outcomes), "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer_mod, untraced: list[Outcome], traced: list) -> tuple[dict, int]:
    """Per-layer metrics from two traced passes ``(tracer, outcomes)`` and
    one untraced pass; also the number of exact counts that differ between
    the traced passes."""
    counts = [t.exact_counts() for t, _ in traced]
    mismatches = sum(counts[0][k] != counts[1][k] for k in counts[0])
    # self times scaled to the reference speed like the latencies they make up
    totals = [t.totals({i: o.seconds / o.raw for i, o in enumerate(outs)})
              for t, outs in traced]
    metrics = {}
    for name in tracer_mod.span_names():
        metrics[name + ".calls"] = (counts[0][name + ".calls"], "count")
        own = statistics.fmean(tot.get(name + ".self_s", 0.0) for tot in totals)
        metrics[name + ".self_s"] = (own, "s")
    for key in tracer_mod.COUNTS:
        metrics[key] = (counts[0][key], "count" if key.endswith(("work_n3", "samples")) else "B")
    all_self = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    for layer in tracer_mod.LAYERS:
        share = sum(v for k, (v, _) in metrics.items()
                    if k.startswith(layer + ".") and k.endswith(".self_s"))
        metrics[layer + ".self_share"] = (share / all_self if all_self else 0.0, "ratio")
    wall_traced = statistics.fmean(sum(o.seconds for o in outs) for _, outs in traced)
    wall_plain = sum(o.seconds for o in untraced)
    metrics["trace.overhead_ratio"] = (wall_traced / wall_plain, "ratio")
    metrics["trace.count_mismatches"] = (mismatches, "count")
    return metrics, mismatches


def summarize(outcomes: list[Outcome]) -> None:
    classes = {}
    for o in outcomes:
        classes.setdefault(o.label, []).append(o.seconds)
    for label, secs in sorted(classes.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  {label:24s} n={len(secs):4d} median {statistics.median(secs) * 1e3:10.3f} ms",
              file=sys.stderr)
    for o in outcomes:
        if o.status != "ok":
            print(f"  {o.status}: {o.label}: {o.message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("spectral", "analysis", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "eigenschaft", "cli.py")):
        print(f"error: no eigenschaft sources under {src}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    # One core for the whole run, set-up interpreters included: no migration
    # between cores whose speed differs, and the speed probe times that core.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, src)

    import oracle
    import speed
    import tracer as tracer_mod
    import workloads
    from eigenschaft import cli

    work = os.path.join(root, ".perfbench_work")
    inputs = os.path.join(work, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(inputs)
    try:
        rounds = max(1, round(ROUNDS[args.workload] * args.seconds / REFERENCE_SECONDS))
        requests, warmups = workloads.build(args.workload, args.seed, rounds, inputs)
        print(f"{args.workload}: seed {args.seed}, {rounds} round(s), "
              f"{len(requests)} requests", file=sys.stderr)
        probe = speed.SpeedProbe()
        warm = serve(cli, warmups, oracle, probe)
        gc.freeze()  # later collections skip the set-up heap, as in a fresh process
        verdicts = {}
        if args.trace == 0:
            setup_s = measure_setup(src, warmups)
            shuffle = random.Random(args.seed)
            passes = []
            for k in range(PASSES):
                order = list(range(len(requests)))
                if k:
                    shuffle.shuffle(order)
                passes.append(serve(cli, requests, oracle, probe, verdicts=verdicts,
                                    order=order))
            outcomes = fastest(passes)
            metrics = end_to_end(outcomes, setup_s)
            mismatches = 0
        else:
            untraced = serve(cli, requests, oracle, probe, verdicts=verdicts)
            traced = []
            for _ in range(2):
                with tracer_mod.Tracer() as tr:
                    traced.append((tr, serve(cli, requests, oracle, probe, tr, verdicts)))
            traced[0][0].write(os.path.join(work, f"spans-{args.workload}-{args.seed}.jsonl"))
            metrics, mismatches = per_layer(tracer_mod, untraced, traced)
            outcomes = untraced
            passes = [untraced, *(outs for _, outs in traced)]
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    summarize(outcomes)
    served = [o for outs in passes for o in outs]
    failed = sum(o.status != "ok" for o in served)
    broken = sum(o.status in ("wrong", "error") for o in served + warm)
    if mismatches:
        print(f"  exact counts differ between two traced passes: {mismatches}", file=sys.stderr)
    print(f"  {len(served)} served, {failed} failed ({broken} wrong or errors)",
          file=sys.stderr)
    result = {
        "correct": broken == 0 and mismatches == 0,
        "attempted": len(served),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
