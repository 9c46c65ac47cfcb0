"""permcrypt benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload qpp-stream --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds `src/permcrypt`.  With
`--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics: the same loop alternating
traced and untraced rounds, then the per-layer probes.  The line before it
records the environment.  `--quick` shrinks every input for the
benchmark's own test.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("qpp-stream", "hppk-session", "cli-files")
# Set-up takes milliseconds for some workloads, so it is repeated at least
# this often and for at least this long, and the median reported.
SETUP_REPEATS = 9
SETUP_MIN_S = 0.5


def _commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": find_spec("numpy") is not None,
        "cryptography": find_spec("cryptography") is not None,
        "commit": _commit(),
    }


def _timings(rounds) -> dict:
    """Calibrated per-round times in ms."""
    return {
        "sender_ms": [1e3 * r.sender_s for r in rounds],
        "receiver_ms": [1e3 * r.receiver_s for r in rounds],
        "keygen_ms": [1e3 * r.keygen_s for r in rounds],
    }


def measure(workload: str, seed: int, seconds: float, traced: bool, quick: bool, work: Path):
    """Run the closed loop; returns (result dict, trace record or None)."""
    from probes import run_probes
    from tracing import Calibration, Tracer, no_span, p99
    from workloads import WORKLOADS as CLASSES

    cls = CLASSES[workload]
    cal = Calibration()
    setup = []
    setup_end = time.perf_counter() + SETUP_MIN_S
    while len(setup) < SETUP_REPEATS or time.perf_counter() < setup_end:
        gc.collect()
        k = cal.scale()
        t0 = time.perf_counter()
        wl = cls(seed, work, quick)
        setup.append(k * (time.perf_counter() - t0))

    warm = wl.round(0, no_span, cal)  # checked, not timed
    # Read before any samples pile up, so a faster loop cannot raise it.
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = warm.attempted, warm.failed
    plain, traced_rounds = [], []
    tracer = Tracer()
    gc.collect()
    deadline = time.perf_counter() + seconds
    i = 1
    while time.perf_counter() < deadline or not plain or (traced and not traced_rounds):
        if traced and i % 2 == 0:
            tracer.round = i
            with tracer.span("bench.round"):
                r = wl.round(i, tracer.span, cal)
            traced_rounds.append(r)
        else:
            r = wl.round(i, no_span, cal)
            plain.append(r)
        attempted += r.attempted
        failed += r.failed
        i += 1

    metrics = {}
    times = _timings(plain)
    if not traced:
        metrics["setup_s"] = (statistics.median(setup), "s")
        for name, values in times.items():
            metrics[name] = (statistics.median(values), "ms")
        if workload == "cli-files":
            rss = statistics.median([r.rss_mib for r in plain])
        else:
            rss = self_rss
        metrics["peak_rss_mib"] = (rss, "MiB")
        trace = None
    else:
        traced_times = _timings(traced_rounds)
        for name, values in times.items():
            metrics[f"{name}.p99"] = (p99(values), "ms")
            metrics[f"{name}.samples"] = (len(values), "count")
            metrics[f"trace_overhead.{name}"] = (
                statistics.median(traced_times[name]) - statistics.median(values), "ms")
        metrics["calibration_ms"] = (1e3 * statistics.median(cal.samples), "ms")
        metrics.update(run_probes(seed, quick, work))
        trace = {
            "layer_self_ms_per_round": tracer.layer_self_ms(len(traced_rounds)),
            "calls": dict(tracer.calls),
            "spans": [
                dict(zip(("id", "parent", "round", "name", "start_ns", "end_ns"), s))
                for s in tracer.kept
            ],
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "permcrypt" / "__init__.py").is_file():
        print(f"error: no permcrypt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Calibration and measured work share one CPU; CLI children inherit it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, trace = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.quick, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment()
    if trace is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"env": env, **trace}))
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
