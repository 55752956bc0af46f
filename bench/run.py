"""abelcheck benchmark: one workload per process, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` next to this
directory.  The timed phase passes over the workload's items again and
again until ``--seconds`` have elapsed (the first pass always completes).
Only the library call of each item is timed; the check of its output
runs between items.

Every time reported is in reference-speed seconds (see hostspeed.py): a
fixed probe timed between items gives the host's speed at that moment,
and each item time is scaled by it.  ``items_per_s`` is the number of
items in the completed passes over their summed scaled times, and
``item_p50_ms`` and ``item_p90_ms`` are percentiles of those times.
``setup_s`` is the time from the entry of this script to the first timed
item (importing the library and building the seeded inputs): the median
over several set-ups, each in a fresh interpreter, in reference-speed
seconds as hostspeed.py scales set-ups.

With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` the run alternates untraced and
traced passes (see tracing.py) and carries the per-layer metrics, as
amounts per pass, plus the tracing overhead: the median over pass pairs
of the traced mean item time minus the untraced mean item time.

The last line of standard output is the JSON result; the line before it
holds the run's context (Python version, cores, source revision, seed,
item counts, the host's speed, the unscaled figures and the SHA-256 of
every byte the items emitted in a pass).
"""

import time

ENTRY = time.perf_counter()

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

from hostspeed import REFERENCE_PROBE_S, REFERENCE_START_S, SpeedLog, time_start
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("finite", "snf", "cli", "parser", "groups", "deciders")
MAX_REPORTED_ERRORS = 3
SETUP_SAMPLES = 9  # set-ups per run, each in a fresh interpreter


class Measurement:
    """Item times, host-speed probes, failures and per-pass output digests
    of a timed phase."""

    def __init__(self, work):
        self.work = work
        self.times: list[float] = []  # every timed item, in order
        self.pass_ends: list[int] = []  # len(times) after each completed pass
        self.speed = SpeedLog()
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()

    def run_pass(self, deadline: float, tracer: Tracer | None = None) -> bool:
        """Time every item once, or until the deadline after a first
        complete pass; return whether the pass completed."""
        clock = time.perf_counter
        work = self.work
        times = self.times
        digest = hashlib.sha256()
        for item in work.items:
            if self.pass_ends and clock() >= deadline:
                return False
            self.speed.maybe_probe(len(times))
            t0 = clock()
            try:
                result = work.run(item)
            except Exception:
                result = None
                self._report(f"item {item!r} raised")
            times.append(clock() - t0)
            self.attempted += 1
            if tracer is not None:
                tracer.on = False
            try:
                ok, emitted = work.verify(item, result)
            except Exception:
                ok, emitted = False, b"unverifiable"
                if result is not None:
                    self._report(f"output of item {item!r} could not be checked")
            if tracer is not None:
                tracer.on = True
            if not ok:
                if result is not None:
                    self._report(f"wrong output for item {item!r}", with_traceback=False)
                self.failed += 1
            digest.update(emitted)
        self.pass_ends.append(len(times))
        self.digests.add(digest.hexdigest())
        return True

    def scaled(self, start: int = 0, end: int | None = None) -> list[float]:
        """Reference-speed times of items start..end, by default of every
        item of the completed passes."""
        end = self.pass_ends[-1] if end is None else end
        return [self.times[j] * self.speed.scale(j) for j in range(start, end)]

    def scaled_passes(self) -> list[list[float]]:
        starts = [0] + self.pass_ends[:-1]
        return [self.scaled(a, b) for a, b in zip(starts, self.pass_ends)]

    def _report(self, message: str, with_traceback: bool = True) -> None:
        if self.failed < MAX_REPORTED_ERRORS:
            print(message, file=sys.stderr)
            if with_traceback:
                traceback.print_exc()


def item_metrics(times: list[float]) -> dict[str, float]:
    """Throughput and item-time percentiles over the timed phase."""
    return {
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": statistics.median(times) * 1000,
        "item_p90_ms": statistics.quantiles(times, n=10)[8] * 1000,
    }


def measure(work, seconds: float) -> Measurement:
    """Pass over the items until the time is up."""
    out = Measurement(work)
    deadline = time.perf_counter() + seconds
    while out.run_pass(deadline) and time.perf_counter() < deadline:
        pass
    return out


def measure_traced(work, lib, seconds: float) -> tuple[Measurement, Measurement, Tracer]:
    """Alternate complete untraced and traced passes, so drift of the
    host's speed falls on both alike."""
    plain, traced = Measurement(work), Measurement(work)
    tracer = Tracer(lib)
    deadline = time.perf_counter() + seconds
    while True:
        plain.run_pass(math.inf)
        with tracer:
            traced.run_pass(math.inf, tracer)
        if time.perf_counter() >= deadline:
            return plain, traced, tracer


def set_up(args) -> tuple[SimpleNamespace, object, float]:
    """Import the library and build the workload's inputs; return them
    with the time from the entry of this script."""
    sys.path.insert(0, str(SRC))
    lib = SimpleNamespace(**{layer: importlib.import_module(f"abelcheck.{layer}") for layer in LAYERS})
    work = WORKLOADS[args.workload](lib, args.seed)
    return lib, work, time.perf_counter() - ENTRY


def cold_setups(args) -> tuple[float, list[float], list[float]]:
    """Median reference-speed set-up time over ``SETUP_SAMPLES`` set-ups,
    each in a fresh interpreter that imports everything again, each
    scaled by the start-up time of an empty interpreter taken next to it
    (see hostspeed.py); also the raw set-up and start-up times."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    raw, starts = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        raw.append(float(done.stdout.split()[-1]))
        starts.append(time_start())
    scaled = [r * REFERENCE_START_S / s for r, s in zip(raw, starts)]
    return statistics.median(scaled), raw, starts


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "abelcheck").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time in seconds and exit")
    args = ap.parse_args(argv)

    if not (SRC / "abelcheck").is_dir():
        print(f"no abelcheck sources under {SRC}", file=sys.stderr)
        return 2
    lib, work, setup_time = set_up(args)
    if args.setup_only:
        print(setup_time)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        plain, traced, tracer = measure_traced(work, lib, args.seconds)
        phases = [plain, traced]
        host_scale = REFERENCE_PROBE_S / statistics.median(traced.speed.times)
        values = {name: value * host_scale if name.endswith(".self_s") else value
                  for name, value in tracer.per_layer(len(traced.pass_ends)).items()}
        values["trace.overhead_ms_per_item"] = statistics.median(
            statistics.fmean(t) - statistics.fmean(p)
            for p, t in zip(plain.scaled_passes(), traced.scaled_passes())) * 1000
    else:
        phases = [measure(work, args.seconds)]
        run = phases[0]
        setup_s, info["setup_raw_s"], info["start_raw_s"] = cold_setups(args)
        values = item_metrics(run.scaled())
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        info["unscaled"] = item_metrics(run.times[:run.pass_ends[-1]])
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    values["failed_frac"] = failed / attempted
    digests = set().union(*(p.digests for p in phases))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    info.update({
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "items_per_pass": len(work.items),
        "passes": [len(p.pass_ends) for p in phases],
        "items": [p.attempted for p in phases],
        "host_factor": [p.speed.host_factor() for p in phases],
        "json_sha256": sorted(digests),
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
