"""nsnet benchmark: one command, three workloads, end-to-end and traced runs.

    python3 benchmarks/run.py --workload train|sweep|sample|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer breakdown (see
benchmarks/README.md). Generated inputs and per-run records go to
``.bench_work/`` under the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:       # before numpy is imported anywhere
    os.environ[_var] = "1"

import reference  # noqa: E402  (this directory is on sys.path)
import tracing  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
PROBE_EVERY_S = 0.5
END_TO_END = {   # name -> unit; every workload reports every one
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "items_per_s": "1/s",
}


def _read(path: str, mode: str = "r"):
    with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
        return fh.read()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    if not os.path.isfile(os.path.join(git, "HEAD")):
        return None
    head = _read(os.path.join(git, "HEAD")).strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if os.path.isfile(os.path.join(git, ref)):
        return _read(os.path.join(git, ref)).strip()
    if os.path.isfile(os.path.join(git, "packed-refs")):
        for line in _read(os.path.join(git, "packed-refs")).splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def environment() -> dict:
    import numpy
    digest = hashlib.sha256()   # of the nsnet sources and the benchmark's own
    for directory in (os.path.join(SRC, "nsnet"), os.path.dirname(os.path.abspath(__file__))):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                digest.update(name.encode() + _read(os.path.join(directory, name), "rb"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def tail_percentile(count: int) -> int:
    """The highest of p99/p90/p50 with at least ten samples beyond it."""
    for q in (99, 90):
        if count * (100 - q) / 100 >= 10:
            return q
    return 50


def _status_mib(field: str) -> float:
    """A ``VmHWM``/``VmRSS``-style line of /proc/self/status, in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {field} in /proc/self/status")


def reset_peak_rss() -> float:
    """Return the peak RSS so far in MiB, then restart the peak from the
    current RSS, after handing freed heap back to the system."""
    peak = _status_mib("VmHWM")
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")   # resets VmHWM; see proc(5)
    return peak


class Sampler:
    """Times the reference kernel every PROBE_EVERY_S seconds from an
    interval timer, wherever the main thread is at that moment, inside
    long nsnet calls too, so the samples spread evenly over the window
    they measure. ``clock`` is a work clock that leaves their time out."""

    def __init__(self):
        self.spent = 0.0    # seconds the kernel ran from the timer

    def _run(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(reference.kernel_seconds())
        self.spent += time.perf_counter() - started

    def clock(self) -> float:
        while True:   # retry when a sample lands between the two reads
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    @contextlib.contextmanager
    def sampling(self, samples: list):
        """Append kernel times to ``samples`` until the block ends; the
        first is taken at once, so the list is never empty."""
        self.samples = samples
        self._run(None, None)
        previous = signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def measure(workload, seconds: float, trace: bool):
    """Set up, prepare, run units and check; returns (metrics, samples, extra)."""
    # The machine flips between a fast and a slow state within seconds, and
    # the share of time spent slow drifts over minutes. A kernel run says
    # little about the operation next to it, but the mean work time and the
    # mean kernel time over the same window are both linear in the share of
    # it spent slow, so their ratio cancels it; medians of a two-state
    # mixture jump between the states instead. So the kernel is sampled
    # evenly over the set-ups (for setup_s) and over the measured window
    # (for items_per_s), and left out of the times it interrupts.
    sampler = Sampler()
    setups, setup_speed = [], []
    for repeat in range(SETUP_REPEATS):
        os.sync()   # start each set-up with no writes of the last one pending
        with sampler.sampling(setup_speed):
            started = sampler.clock()
            workload.setup(repeat)
            setups.append(sampler.clock() - started)
    workload.prepare()

    extra = {"setup_runs_s": setups}
    if not trace:
        setup_peak = reset_peak_rss()
        speed = []
        workload.clock = sampler.clock
        deadline = time.perf_counter() + seconds
        units = []
        with sampler.sampling(speed):
            while not units or time.perf_counter() < deadline:   # whole units, at least one
                units.append(workload.run_unit())
        peak = _status_mib("VmHWM")
        workload.check()
        items = workload.items_per_unit()
        latencies = list(workload.seconds)
        # > 1: slower than the standard machine
        setup_machine = statistics.mean(setup_speed) / reference.NOMINAL_S
        machine = statistics.mean(speed) / reference.NOMINAL_S
        metrics = {
            "setup_s": statistics.median(setups) / setup_machine,
            "peak_rss_mb": peak,
            "items_per_s": items / statistics.mean(units) * machine,
        }
        samples = {"setup_s": len(setups), "peak_rss_mb": 1, "items_per_s": len(units)}
        # Printed and recorded but not gated: the set-up peak belongs to no
        # measured phase, and the others spread across seeds or machine
        # load by more than the largest bound (see README.md).
        top1, recall = workload.quality()
        reported = {
            "setup_raw_s": (statistics.median(setups), "s", len(setups)),
            "items_per_s_raw": (items / statistics.mean(units), "1/s", len(units)),
            "setup_peak_rss_mb": (setup_peak, "MiB", 1),
            "op_p50_ms": (tracing.percentile(latencies, 50) * 1e3, "ms", len(latencies)),
            "top1": (top1, "fraction", 1), "recall": (recall, "fraction", 1)}
        q = tail_percentile(len(latencies))
        if q > 50:
            reported[f"op_p{q}_ms"] = (tracing.percentile(latencies, q) * 1e3, "ms",
                                       len(latencies))
        extra.update(unit_s=units, reference_s=speed, setup_reference_s=setup_speed, reported={
            n: {"value": v, "unit": u, "samples": c} for n, (v, u, c) in reported.items()})
        return metrics, samples, extra

    # Untraced and traced units alternate, so both see the same machine load.
    tracer = tracing.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(workload.run_unit())
        with tracer.installed(), tracer.root():
            traced.append(workload.run_unit())
    workload.check()
    units = len(traced)
    train_videos = units * workload.scale.unit_epochs * workload.scale.train_videos \
        if workload.name == "train" else 0
    metrics = tracing.per_layer_metrics(
        tracer, units, workload.videos_per_unit, train_videos,
        overhead=statistics.mean(traced) / statistics.mean(plain))
    extra.update(absent=tracer.absent, untraced_units=len(plain), traced_units=units,
                 spans=tracer.dump())
    samples = {name: units for name in metrics}
    return metrics, samples, extra


def summarize(workload, metrics: dict, trace: bool) -> tuple[dict, list]:
    """The result line and every error behind a false ``correct``."""
    errors = [workload.errors[op] for op in sorted(workload.errors)]
    units = tracing.PER_LAYER if trace else END_TO_END
    line = {"correct": not errors, "attempted": len(workload.seconds), "failed": len(errors),
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}
    return line, errors


def earlier_digest(results: str, workload: str, seed: int, source: str) -> str | None:
    """The artifact digest of an earlier run of this workload and seed on
    the same source, from its record in ``results``; None without one."""
    for trace in (0, 1):
        path = os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json")
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
            if record["environment"]["source_sha256"] == source \
                    and record.get("artifact_digest"):
                return record["artifact_digest"]
    return None


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "nsnet", "__init__.py")):
        sys.exit(f"error: no nsnet source under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    import nsnet
    if not os.path.abspath(nsnet.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported nsnet from {nsnet.__file__}, not from {SRC}")
    import workloads

    env = environment()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    results = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    if args.workload == "train":
        workload.known_digest = earlier_digest(results, args.workload, args.seed,
                                               env["source_sha256"])
    started = time.perf_counter()
    try:
        os.makedirs(work)
        metrics, samples, extra = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()   # the next run's set-up should not pay for these deletions
    line, errors = summarize(workload, metrics, bool(args.trace))
    spans = extra.pop("spans", None)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "wall_s": time.perf_counter() - started,
              "metrics": {n: {**m, "samples": samples[n]} for n, m in line["metrics"].items()},
              "artifact_digest": getattr(workload, "digest", None),
              "errors": errors[:20], **extra}
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(os.path.join(results, f"{args.workload}-spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(spans, fh)

    print(f"# environment: {json.dumps(env)}")
    for error in errors[:5]:
        print(f"# failed: {error}")
    print(f"# {'metric':44s} {'value':>14s} {'unit':8s} samples")
    for name, m in record["metrics"].items():
        print(f"# {name:44s} {m['value']:14.6g} {m['unit']:8s} {m['samples']}")
    for name, m in record.get("reported", {}).items():
        print(f"# {name:44s} {m['value']:14.6g} {m['unit']:8s} {m['samples']} (not gated)")
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("train", "sweep", "sample"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "sweep", "sample", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
