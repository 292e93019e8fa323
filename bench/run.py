"""Benchmark for twistdirac: end-to-end metrics and a traced layer view.

Usage (from the repository root):

    python3 bench/run.py --workload scenarios --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run sets up the workload (import plus input generation), then runs whole
rounds of items until the items' time reaches --seconds and at least 100
items were attempted, checking every output.  --trace 0 reports the end-to-end metrics; --trace 1 runs a
fixed number of rounds with every public function of the package wrapped
and reports the per-layer metrics.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("scenarios", "brackets", "hamiltonian", "oracle-sampled")
END_TO_END = (("setup_s", "s"), ("items_per_s", "items/s"),
              ("item_p50_ms", "ms"), ("item_p90_ms", "ms"),
              ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 7        # this process plus six fresh ones
MIN_ITEMS = 100          # so that ten items lie beyond item_p90_ms
WALL_LIMIT_S = 110       # no new round starts after this much wall time


def workload_class(name):
    from tdbench import brackets, hamiltonian, oracle, scenarios
    return {"scenarios": scenarios, "brackets": brackets,
            "hamiltonian": hamiltonian,
            "oracle-sampled": oracle}[name].Workload


def setup(name, seed):
    """Import the package and generate the inputs; (workload, CPU seconds
    of this process since it started)."""
    import twistdirac  # noqa: F401
    import twistdirac.cli  # noqa: F401
    import twistdirac.randgen  # noqa: F401
    workdir = os.path.join(ROOT, ".bench_tmp", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workload_class(name)(seed, workdir)
    workload.workdir = workdir
    return workload, time.process_time()


def setup_in_fresh_process(name, seed):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if top.returncode or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown (not a git checkout)"
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown (git not available)"


def run_one(name, seed, seconds, trace):
    from tdbench.harness import ItemLog
    workload, first_setup = setup(name, seed)
    try:
        setups = [first_setup]
        if not trace:
            setups += [setup_in_fresh_process(name, seed)
                       for _ in range(SETUP_SAMPLES - 1)]
        tracer = None
        if trace:
            from tdbench.trace import Tracer
            tracer = Tracer()
            tracer.install()
        log = ItemLog()
        rounds = 0
        wall_start = time.perf_counter()
        while True:
            workload.run_round(rounds, log)
            rounds += 1
            if trace:
                if rounds >= workload.trace_rounds:
                    break
            elif log.program_s >= seconds and log.attempted >= MIN_ITEMS:
                break
            if time.perf_counter() - wall_start > WALL_LIMIT_S:
                break
        wall = time.perf_counter() - wall_start
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)

    print(f"run: workload={name} seed={seed} trace={int(trace)} "
          f"rounds={rounds} attempted={log.attempted} failed={log.failed} "
          f"program_s={log.program_s:.3f} wall_s={wall:.3f}")
    for fault, count in sorted(log.fault_counts.items()):
        print(f"  known fault x{count}: {fault}")
    print(f"  python={platform.python_version()} nproc={os.cpu_count()} "
          f"git={git_sha()}")
    for problem in log.problems[:20]:
        print(f"  WRONG: {problem}", file=sys.stderr)

    if tracer is not None:
        outdir = os.path.join(ROOT, ".bench_out")
        os.makedirs(outdir, exist_ok=True)
        tracer.write_spans(os.path.join(outdir, f"spans-{name}.csv.gz"))
        metrics = tracer.metrics()
    else:
        ms = [t * 1000.0 for t in log.times]
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": (log.attempted - log.failed) / log.program_s,
            "item_p50_ms": statistics.median(ms),
            "item_p90_ms": statistics.quantiles(ms, n=10,
                                                method="inclusive")[8],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        for m, u in END_TO_END:
            print(f"  {m} = {values[m]:.6g} {u}")
    return {"correct": not log.problems, "attempted": log.attempted,
            "failed": log.failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1]) if lines else {
            "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] &= bool(result["correct"]) and \
            proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(f"{'workload':<16}{'metric':<40}{'value':>14}  unit")
    for key, entry in combined["metrics"].items():
        name, metric = key.split(".", 1)
        print(f"{name:<16}{metric:<40}{entry['value']:>14.6g}  "
              f"{entry['unit']}")
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twistdirac", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        workload, seconds = setup(args.workload, args.seed)
        shutil.rmtree(workload.workdir, ignore_errors=True)
        print(f"{seconds:.9f}")
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
