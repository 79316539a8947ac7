"""simflow benchmark: one workload, measured end to end or layer by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and described in README.md beside
this file.  Run from anywhere; the program is imported from ``src/`` of
the checkout this file sits in, never from an installed copy.

With ``--trace 0`` the runtime entry call is timed untouched; with
``--trace 1`` half the time is spent untraced and half with the layer
wrappers of ``tracer.py`` installed, and per-layer numbers are printed.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Output
files go to ``.bench_out/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from calibrate import NOMINAL_S, reference_loop, scaled
from tracer import RUNTIME_SPANS, Tracer, sanitize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

MIN_REPS = 3           # timed runtime calls per phase, whatever --seconds says
SETUP_PROBES = {"full": 5, "tiny": 1}
PROBE_TIMEOUT_S = 120


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (missing program, bad probe)."""


def import_program():
    """Import simflow from this checkout's src/ and nowhere else.

    The workloads module is imported here, not at the top, because it
    imports simflow, which must not come from anywhere else.
    """
    global CheckError, DEFAULT_SEED, Prepared, WORKLOADS, hash_outputs
    if not (SRC / "simflow" / "__init__.py").is_file():
        raise BenchmarkError(f"no simflow package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import simflow
    if Path(simflow.__file__).resolve().parent != (SRC / "simflow").resolve():
        raise BenchmarkError(f"imported simflow from {simflow.__file__}, not {SRC}")
    from workloads import CheckError, DEFAULT_SEED, WORKLOADS, Prepared, hash_outputs


# ---------------------------------------------------------------------------
# Machine record

def _cache_sizes():
    """Data and unified cache sizes by level, read from sysfs."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine(prepared):
    import numpy
    import scipy
    caches = _cache_sizes()
    sizes = prepared.array_sizes()
    record = {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": caches,   # as seen by cpu0; the L3 is shared
        "workload_sizes": sizes,
    }
    llc = caches.get("L3") or caches.get("L2")
    largest = sizes.get("padded_field_bytes") or sizes["property_array_bytes"]
    if llc and llc.endswith("K") and largest < 4 * 1024 * int(llc[:-1]):
        record["roofline"] = (f"not reported: the largest array ({largest} bytes) is below "
                              f"4 x the last-level cache ({llc}), so no run measures "
                              "memory bandwidth")
    return record


# ---------------------------------------------------------------------------
# Set-up

def setup_probes(workload, scale):
    """Phase times of fresh interpreters (the median hides a first, cold one)."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)]
    cmd += [str(p) for p in workload.documents()]
    runs = []
    for _ in range(SETUP_PROBES[scale]):
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                                  cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"set-up probe exceeded {PROBE_TIMEOUT_S} s") from exc
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if Path(result.pop("simflow")).resolve().parent != (SRC / "simflow").resolve():
            raise BenchmarkError("set-up probe imported simflow from outside src/")
        result["scaled_setup_s"] = scaled(result["setup_s"], *result.pop("loops_s"))
        runs.append(result)
    return runs


# ---------------------------------------------------------------------------
# Measurement

class Sample(NamedTuple):
    """One timed runtime call."""

    wall: float      # seconds
    scaled: float    # seconds at the reference loop's nominal speed
    cpu: float       # user + system seconds of this process
    speed: float     # machine speed around the call, nominal = 1


class Measurement:
    """Runs of one workload in this process, with their checks.

    A run fails when its outputs are wrong.  The default-seed run is
    checked on its own.  The first run at the measured seed gets the full
    output checks, and every later run must reproduce its bytes; if the
    first run is wrong, so is every run at that seed.
    """

    def __init__(self, prepared, seed):
        self.prepared = prepared
        self.seed = seed
        self.dir = OUT / prepared.workload.name
        self.attempted = 0
        self.reference = None       # (report, hashes) of the default-seed run
        self.first = None           # (report, hashes) of the first run at `seed`
        self.seeded_runs = 0
        self.reference_bad = False
        self.first_bad = False
        self.differing = 0
        self.messages = []

    def run_once(self, seed, out_dir):
        shutil.rmtree(out_dir, ignore_errors=True)
        config = self.prepared.config(seed, out_dir)
        loop_before = reference_loop()
        cpu0 = os.times()
        t0 = time.perf_counter()
        report = self.prepared.call(config)
        wall = time.perf_counter() - t0
        cpu1 = os.times()
        loop_after = reference_loop()
        self.attempted += 1
        cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
        sample = Sample(wall, scaled(wall, loop_before, loop_after), cpu,
                        2 * NOMINAL_S / (loop_before + loop_after))
        return report, sample, hash_outputs(out_dir)

    def reference_run(self):
        """One run at the default seed: the warm-up, checked against reference.json."""
        report, _, hashes = self.run_once(DEFAULT_SEED, self.dir / "reference")
        self.reference = (report, hashes)

    def timed(self, budget, tracer=None):
        """Run until the timed calls fill `budget` seconds; return samples."""
        samples, layers = [], []
        while True:
            out = self.dir / ("first" if self.first is None else "rep")
            report, sample, hashes = self.run_once(self.seed, out)
            self.seeded_runs += 1
            if tracer is not None:
                layers.append(tracer.take())
            if self.first is None:
                self.first = (report, hashes)
            elif hashes != self.first[1]:
                self.differing += 1
                self.messages.append(f"run {self.seeded_runs}: outputs differ from the "
                                     "first run at the same seed")
            samples.append(sample)
            walls = [x.wall for x in samples]
            if len(walls) >= MIN_REPS and sum(walls) + statistics.median(walls) > budget:
                return samples, layers

    def check(self):
        report, hashes = self.reference
        try:
            self.prepared.check_outputs(report, self.dir / "reference")
            if self.prepared.scale == "full":
                self.prepared.check_reference(report, hashes)
        except CheckError as exc:
            self.reference_bad = True
            self.messages.append(f"default-seed run: {exc}")
        report, hashes = self.first
        try:
            self.prepared.check_outputs(report, self.dir / "first")
            if self.seed == DEFAULT_SEED and hashes != self.reference[1]:
                raise CheckError("two runs at the default seed differ")
        except CheckError as exc:
            self.first_bad = True
            self.messages.append(f"first run at seed {self.seed}: {exc}")

    @property
    def failed(self):
        seeded = self.seeded_runs if self.first_bad else self.differing
        return int(self.reference_bad) + seeded


def tail(samples):
    """(percentile, value): the highest whole percentile with >= 10 samples above it."""
    n = len(samples)
    if n <= 10:
        return None, max(samples)
    q = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    return q, ordered[math.ceil(q * n / 100) - 1]


def describe(name, values, unit):
    """One summary line: median, tail by the rule above, sample count."""
    q, value = tail(values)
    spread = (f"p{q} {value:.6g} {unit}" if q else
              f"max {value:.6g} {unit} (no percentile has 10 samples above it)")
    return f"# {name}: median {statistics.median(values):.6g} {unit}, {spread}, " \
           f"{len(values)} samples"


def end_to_end(prepared, probes, samples, peak_rss_mb):
    run_s = statistics.median(x.scaled for x in samples)
    return {
        "setup_s": statistics.median(p["scaled_setup_s"] for p in probes),
        "run_s": run_s,
        "entity_steps_per_s": prepared.entities * prepared.steps / run_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(probes, untraced, traced, layers, failed_frac):
    """Per-run means of the traced runs, plus set-up phases and overheads."""
    names = set().union(*layers)
    mean = {k: statistics.fmean(layer.get(k, 0.0) for layer in layers) for k in names}
    out = {k: statistics.median(p[k] for p in probes)
           for k in ("cli.import_s", "documents.load_s", "documents.validate_s",
                     "kernel.build_kernel_s")}
    out.update(mean)

    def ratio(num, den, factor):
        return factor * mean.get(num, 0.0) / mean[den] if mean.get(den) else 0.0

    out.update({
        "grid.apply_stencil.ns_per_cell": ratio("grid.apply_stencil_s",
                                                "grid.apply_stencil.cells", 1e9),
        "grid.write_vtk.files": mean.get("grid.write_vtk.calls", 0.0),
        "grid.write_vtk.ns_per_value": ratio("grid.write_vtk_s", "grid.write_vtk.values", 1e9),
        "algorithm.us_per_call": ratio("algorithm.run_algorithm_s",
                                       "algorithm.run_algorithm.calls", 1e6),
        "process.cpu_s": statistics.fmean(x.cpu for x in untraced),
        "wall.setup_s": statistics.median(p["setup_s"] for p in probes),
        "wall.run_s": statistics.median(x.wall for x in untraced),
        "machine.speed": statistics.median(x.speed for x in untraced + traced),
        "trace.run_s": sum(mean.get(span + "_s", 0.0) for span in RUNTIME_SPANS),
        "trace.untraced_run_s": statistics.fmean(x.wall for x in untraced),
        # scaled times, so that a change of machine speed between the
        # untraced and the traced half does not read as tracing cost
        "trace.overhead_frac": (statistics.fmean(x.scaled for x in traced)
                                / statistics.fmean(x.scaled for x in untraced) - 1.0),
        "failed_frac": failed_frac,
    })
    return out


def select(values, listed, kind):
    """The metrics BENCHMARK.json lists, with their units."""
    out = {}
    for entry in listed:
        name = entry["name"]
        if kind == "end_to_end" and name not in values:
            raise BenchmarkError(f"metric {name} was not measured")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": entry["unit"]}
    return out


def run_benchmark(name, seed, seconds, trace, scale="full"):
    """Measure one workload; returns (summary lines, result object)."""
    import_program()

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if name not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[name]
    probes = setup_probes(workload, scale)
    prepared = Prepared(workload, scale)
    measurement = Measurement(prepared, seed)
    lines = [f"# machine {json.dumps(machine(prepared), sort_keys=True)}"]
    try:
        measurement.reference_run()
        if trace:
            untraced, _ = measurement.timed(seconds / 2)
            tracer = Tracer({k: sanitize(v) for k, v in prepared.rule_names().items()})
            tracer.install()
            try:
                traced, layers = measurement.timed(seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            untraced, _ = measurement.timed(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measurement.check()
    finally:
        shutil.rmtree(measurement.dir, ignore_errors=True)

    failed_frac = measurement.failed / measurement.attempted
    lines += [
        f"# {name} seed={seed} scale={scale} trace={trace}",
        "# times are scaled to the reference loop's nominal speed (calibrate.py); "
        "wall.* are unscaled",
        describe("run_s (untraced)", [x.scaled for x in untraced], "s"),
        describe("wall.run_s (untraced)", [x.wall for x in untraced], "s"),
        describe("setup_s", [p["scaled_setup_s"] for p in probes], "s"),
        describe("wall.setup_s", [p["setup_s"] for p in probes], "s"),
        *(f"FAILED: {message}" for message in measurement.messages),
        f"failed_frac {failed_frac:.6g} ratio "
        f"({measurement.failed} of {measurement.attempted} runs)",
    ]
    if trace:
        values = per_layer(probes, untraced, traced, layers, failed_frac)
        metrics = select(values, spec["per_layer"], "per_layer")
        lines.append(f"# traced top-level spans {values.get('trace.top_level_s', 0.0):.6f} s + "
                     f"runtime self {_runtime_self(values):.6f} s = traced run_s "
                     f"{values['trace.run_s']:.6f} s; untraced run_s "
                     f"{values['trace.untraced_run_s']:.6f} s")
    else:
        values = end_to_end(prepared, probes, untraced, peak_rss_mb)
        metrics = select(values, spec["end_to_end"], "end_to_end")
    for key, metric in metrics.items():
        lines.append(f"{key} {metric['value']:.9g} {metric['unit']}")
    result = {"correct": measurement.failed == 0, "attempted": measurement.attempted,
              "failed": measurement.failed, "metrics": metrics}
    return lines, result


def _runtime_self(values):
    return sum(values.get(span + ".self_s", 0.0) for span in RUNTIME_SPANS)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        lines, result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
