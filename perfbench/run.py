"""Benchmark of the visco-pt command line, end to end and layer by layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload mp-verify --seed 1 --seconds 20 --trace 0

A run imports the program from ``src/`` once, then repeats whole rounds of
the workload's CLI commands (``visco_pt.cli.main``, in this process) until
``--seconds`` have passed, and checks every command's exit code and output
files. With ``--trace 0`` it prints the end-to-end metrics, with ``wall_s``
rescaled to a fixed host speed (``speed.py``); with ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is a
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checks
import spans
import speed

# One operation is one CLI command: (subcommand, config stem under configs/).
WORKLOADS = {
    "mp-verify": [("run", "mp_relax"), ("verify", "mp_relax"),
                  ("run", "mp_loaded"), ("verify", "mp_loaded")],
    "shear-verify": [("run", "shear_quadratic"), ("verify", "shear_quadratic"),
                     ("run", "shear_quartic"), ("verify", "shear_quartic")],
    "sweeps": [("sweep-tau", "mp_relax"), ("sweep-eps", "eps_quadratic"),
               ("sweep-eps", "eps_quartic")],
}
OUT = ".perfbench_out"
SETUP_REPEATS = 7
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import visco_pt.cli as cli
for path in sys.argv[1:]:
    cli.load_config(path)
print(time.perf_counter() - t0)
"""


def setup_seconds(configs):
    """Median time, over fresh interpreters, to import visco_pt.cli and load the configs."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *configs], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def snapshot(out):
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as handle:
            files[name] = handle.read()
    return files


class Operation:
    """One CLI command of a workload and what its first round wrote."""

    def __init__(self, command, stem, seed, root):
        self.command, self.stem = command, stem
        self.config = os.path.join("configs", stem + ".cfg")
        self.out = os.path.join(root, f"{command}_{stem}")
        self.argv = [command, "--config", self.config, "--out", self.out, "--seed", str(seed)]
        self.reference = None  # (files, failures) of the first round

    def check(self):
        """Failures of the output: the independent checks on the first round's
        files; byte identity with those files on every later round."""
        files = snapshot(self.out)
        if self.reference is None:
            self.reference = (files, checks.CHECKS[self.command](self.out, checks.read_config(self.config)))
            return self.reference[1]
        if files != self.reference[0]:
            return [f"{self.out}: output differs from the first round"]
        return self.reference[1]


def run_round(cli, operations, tracer=None, sampler=None):
    """Runs every operation once; returns (seconds spent in commands, the same
    rescaled to the reference speed, which is 0 without a sampler, failed count)."""
    busy, scaled, failed = 0.0, 0.0, 0
    for op in operations:
        shutil.rmtree(op.out, ignore_errors=True)
        os.makedirs(op.out)
        mark = sampler.mark() if sampler else None
        start = time.perf_counter()
        span = tracer.root(f"op {op.command} {op.stem}") if tracer else contextlib.nullcontext()
        try:
            with span:
                code = cli.main(op.argv)
        except Exception:
            traceback.print_exc()
            code = None
        raw, rescaled = sampler.since(mark) if sampler else (time.perf_counter() - start, 0.0)
        busy, scaled = busy + raw, scaled + rescaled
        fails = op.check() if code == 0 else [f"exit code {code}"]
        if fails:
            failed += 1
            print(f"FAILED {' '.join(op.argv)}: " + "; ".join(fails[:5]), file=sys.stderr)
    return busy, scaled, failed


def write_trace(path, rounds):
    """Spans of every traced round as CSV; threads are numbered in order of appearance."""
    threads = {}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("round,id,parent,thread,name,start_ns,end_ns\n")
        for k, round_spans in enumerate(rounds, start=1):
            for s in sorted(round_spans, key=lambda s: s.start):
                thread = threads.setdefault(s.thread, len(threads))
                handle.write(f"{k},{s.sid},{s.parent},{thread},{s.name},{s.start},{s.end}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "visco_pt", "cli.py")):
        print("error: run from the root of a visco-pt checkout (no src/visco_pt/cli.py)", file=sys.stderr)
        return 2
    # The program's defaults decide the kernel backend and the sweep pool size.
    for name in ("VISCO_PT_THREADS", "VISCO_PT_KERNELS"):
        os.environ.pop(name, None)
    seed = args.seed % 2**32  # the probe generator takes non-negative seeds
    stems = [stem for _, stem in WORKLOADS[args.workload]]
    config_paths = [os.path.join("configs", s + ".cfg") for s in dict.fromkeys(stems)]

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = (setup_seconds(config_paths), "s")
    sys.path.insert(0, os.path.abspath("src"))
    import visco_pt.cli as cli

    root = os.path.join(OUT, args.workload)
    shutil.rmtree(root, ignore_errors=True)
    operations = [Operation(c, s, seed, root) for c, s in WORKLOADS[args.workload]]
    tracer = spans.Tracer() if args.trace else None
    # Only untraced runs sample the host speed: a traced run's spans would
    # otherwise hold the sampling time.
    sampler = speed.Sampler() if tracer is None else None
    round_times, scaled_times, traced_rounds, attempted, failed = [], [], [], 0, 0
    start = time.perf_counter()
    # A traced run alternates untraced and traced rounds, untraced first: every
    # traced output is compared byte for byte with untraced output, and the two
    # kinds of round give the tracing overhead side by side.
    with sampler or contextlib.nullcontext():
        while len(round_times) < 1 + args.trace or time.perf_counter() - start < args.seconds:
            traced = tracer is not None and len(round_times) % 2 == 1
            if traced:
                tracer.install()
            try:
                busy, scaled, bad = run_round(cli, operations, tracer if traced else None, sampler)
            finally:
                if traced:
                    tracer.uninstall()
            round_times.append(busy)
            scaled_times.append(scaled)
            attempted += len(operations)
            failed += bad
            if traced:
                traced_rounds.append(tracer.spans)
                tracer.spans = []

    if tracer is None:
        metrics["wall_s"] = (statistics.median(scaled_times), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        print(f"{args.workload}: {len(sampler.samples)} reference samples, median "
              f"{statistics.median(sampler.samples) * 1e3:.4f} ms (nominal {speed.REF_S * 1e3:g} ms); "
              "rescaled seconds per round: " + " ".join(f"{t:.4f}" for t in scaled_times))
    else:
        per_round = [spans.layer_metrics(r) for r in traced_rounds]
        for name, (_, unit) in per_round[0].items():
            pick = statistics.median_low if unit in spans.COUNT_UNITS else statistics.median
            metrics[name] = (pick([m[name][0] for m in per_round]), unit)
        write_trace(os.path.join(root, "trace.csv"), traced_rounds)
        if tracer.absent:
            print("absent at this commit: " + ", ".join(tracer.absent), file=sys.stderr)
        plain, traced = statistics.median(round_times[0::2]), statistics.median(round_times[1::2])
        print(f"tracing overhead {traced - plain:+.4f} s per round: traced rounds median "
              f"{traced:.4f} s, untraced rounds median {plain:.4f} s", file=sys.stderr)
    print(f"{args.workload}: {len(round_times)} rounds of {len(operations)} commands, seconds per round: "
          + " ".join(f"{t:.4f}" for t in round_times))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
