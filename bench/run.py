"""Benchmark for affdim: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload bracket-7map --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

A run sets up its inputs from the seed, runs one untimed warm-up pass,
then timed passes until --seconds is spent (at least three), calling
gc.collect() before each. Reference slices bracket every public call
of a pass and every set-up probe (see reference.py). With --trace 0 it
reports the end-to-end metrics: median wall and CPU time per pass and
set-up time (the median of several set-ups in fresh interpreters), all
three in nominal seconds (each call's measured seconds times
REF_NOMINAL_S over the mean of the slices around it), and peak resident
memory. With
--trace 1 the timed passes run under spans, one traced pass of every
other workload and the layer probes follow, and the run reports the
per-layer metrics. Either way the outputs are checked, the run's record
goes to bench/results/, and the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics. The exit code is 0
only when every check passed.

`--workload all` runs the three workloads one after another, each in
its own process.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

from reference import REF_NOMINAL_S, Paced  # noqa: E402
from spans import NULL_TRACER, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("bracket-7map", "attractor-1e6", "cli-session")
MIN_PASSES = 3
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of set-up."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


def git_sha() -> str:
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


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure(wl, inputs, seconds: float, tracer):
    """Warm-up pass, then timed passes; returns the pass records.

    Each pass runs under a Paced wrapper, so a reference slice brackets
    every call; a pass's times are those of its calls, measured and at
    nominal speed, without the slices.
    """
    gc.collect()
    warm = wl.run_pass(inputs, Paced(NULL_TRACER))
    reference = wl.digest(warm)
    failed = wl.failed(warm)
    passes, totals, mismatched = [], [], 0
    begin = time.perf_counter()
    # start a pass only if it is expected to end within the run length
    while len(passes) < MIN_PASSES or time.perf_counter() - begin + median(totals) <= seconds:
        gc.collect()
        tracer.pass_id = len(passes)
        paced = Paced(tracer)
        t0 = time.perf_counter()
        out = wl.run_pass(inputs, paced)
        paced.close()
        totals.append(time.perf_counter() - t0)
        passes.append(paced)
        failed += wl.failed(out)
        mismatched += wl.digest(out) != reference
    return warm, passes, failed, mismatched


def probe_setups(wl, seed: int):
    """SETUP_PROBES set-ups in fresh interpreters, bracketed by slices.

    Returns the measured times, the same at nominal speed, and the slices.
    """
    paced = Paced(NULL_TRACER)
    setups = []
    for _ in range(SETUP_PROBES):
        with paced.span("setup"):
            setups.append(probe_setup(wl.name, seed))
    paced.close()
    return setups, [s * k for s, k in zip(setups, paced.scales())], paced.slices


def run_one(args) -> int:
    try:
        import workloads
    except ImportError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NULL_TRACER
    inputs = wl.setup(args.seed)
    try:
        warm, passes, failed, mismatched = measure(wl, inputs, args.seconds, tracer)
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if wl.peak_from_children else resource.RUSAGE_SELF)
        peak_mb = usage.ru_maxrss / 1024.0
        setups, nominal_setups, setup_slices = (
            ([], [], []) if args.trace else probe_setups(wl, args.seed))
        checks = wl.check(inputs, warm)
    finally:
        wl.close(inputs)
    checks.append(("every pass gives identical outputs", mismatched == 0,
                   "%d of %d passes differ" % (mismatched, len(passes))))
    attempted = wl.ops_per_pass * (1 + len(passes))
    walls, cpus = zip(*(p.measured() for p in passes))
    nominal_walls, nominal_cpus = zip(*(p.nominal() for p in passes))
    slices = [s for p in passes for s in p.slices] + setup_slices

    if args.trace:
        tracer.pass_id = "layers"
        for other in workloads.WORKLOADS.values():
            if other is not wl:
                other_inputs = other.setup(args.seed)
                try:
                    other.run_pass(other_inputs, tracer)
                finally:
                    other.close(other_inputs)
        workloads.layer_probes(args.seed, tracer)
        values = workloads.layer_metrics(tracer)
        units = {name: ("count" if name.endswith("_words") else
                        "1/s" if name.endswith("_per_s") else "s") for name in values}
    else:
        values = {"wall_s": median(nominal_walls), "cpu_s": median(nominal_cpus),
                  "setup_s": median(nominal_setups), "peak_rss_mb": peak_mb}
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}
    correct = all(ok for _, ok, _ in checks)

    RESULTS.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (wl.name, args.seed, args.trace)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "passes": len(passes), "pass_wall_s": walls, "pass_cpu_s": cpus,
        "pass_nominal_wall_s": nominal_walls, "pass_nominal_cpu_s": nominal_cpus,
        "quartiles": {"wall_s": quantiles(walls, n=4), "cpu_s": quantiles(cpus, n=4),
                      "nominal_wall_s": quantiles(nominal_walls, n=4),
                      "nominal_cpu_s": quantiles(nominal_cpus, n=4)},
        "setup_samples_s": setups, "setup_nominal_s": nominal_setups,
        "reference": {"nominal_s": REF_NOMINAL_S, "slices": len(slices),
                      "slice_wall_s": quantiles(slices, n=4),
                      "pass_slices_s": [p.slices for p in passes],
                      "pass_call_wall_s": [[w for w, _ in p.calls] for p in passes]},
        "measured": {"wall_s": median(walls), "cpu_s": median(cpus),
                     "setup_s": median(setups) if setups else None},
        "attempted": attempted, "failed": failed, "correct": correct,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "metrics": metrics,
        "derived": ["dimension.roots_s", "dimension.walk_words",
                    "dimension.walk_words_per_s", "attractor.chaos_points_per_s"]
        if args.trace else [],
    }
    (RESULTS / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.dump(RESULTS / (stem + "-spans.json"))

    q1, _, q3 = record["quartiles"]["wall_s"]
    print("%s seed %d: %d timed passes, measured wall per pass median %.4f s "
          "(quartiles %.4f-%.4f); reference slice median %.5f s"
          % (wl.name, args.seed, len(passes), median(walls), q1, q3, median(slices)))
    for name, ok, detail in checks:
        print("  check %-4s %s%s" % ("ok" if ok else "FAIL", name,
                                     " (%s)" % detail if detail else ""))
    for name, m in metrics.items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              text=True)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print("error: %s printed no result" % name, file=sys.stderr)
            return 1
        if done.returncode != 0:
            code = 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"]["%s.%s" % (name, metric)] = m
    print(json.dumps(total))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
