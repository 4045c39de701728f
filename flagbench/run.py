"""flagheight benchmark: reference-normalised CLI timings, checked answers,
and a separate traced run for per-layer self times.

Usage, from the root of a checkout:

    python3 flagbench/run.py --workload borel_all --seed 1 --seconds 30 \
        --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the `end_to_end` list of BENCHMARK.json, with `--trace 1` its
`per_layer` list.  See flagbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from refkernel import Sampler, bracket, normalise
from tracer import COUNT_METRICS, TIME_METRICS, Tracer
from workloads import WORKLOADS, check, check_pairs, key, load_expected, \
    pass_order

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 21


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median normalised time of `import flagheight.cli` in a fresh
    process.  One unrecorded probe first writes the bytecode cache."""
    values = []
    for _ in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "import_probe.py")],
            capture_output=True, text=True, timeout=60, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        values.append(normalise(probe["import_s"], probe["kernel_s"]))
    return statistics.median(values[1:])


def call_cli(cli, argv):
    """One timed in-process CLI call: (seconds, exit code, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    except Exception:  # a traceback is a failed instance, not a crash
        elapsed = time.perf_counter() - start
        return elapsed, -1, traceback.format_exc()
    return time.perf_counter() - start, rc, out.getvalue()


def run_pass(cli, workload: dict, order, expected: dict, tracer=None):
    """Run every instance once, in the given order.  Each call is bracketed
    and sampled by the reference kernel; answers are checked after the
    closing bracket.  Returns a dict with raw and normalised times, kernel
    times, errors, and with a tracer the layer times and counts."""
    result = {"calls": {}, "raw": 0.0, "norm": 0.0, "kernel": [],
              "errors": [], "layers": dict.fromkeys(TIME_METRICS, 0.0)}
    heights = {}
    sampler = Sampler(on_pause=tracer.pause if tracer else None)
    if tracer:
        tracer.reset_counts()
        tracer.take_times()
    before = bracket()
    for argv in order:
        gc.collect()
        with sampler:
            elapsed, rc, out = call_cli(cli, argv)
        after = bracket()
        kernel = before + sampler.samples + after
        scale = normalise(1.0, kernel)
        elapsed -= sampler.excluded
        result["kernel"] += kernel
        result["calls"][key(argv)] = elapsed * scale
        result["raw"] += elapsed
        result["norm"] += elapsed * scale
        if tracer:
            for metric, t in tracer.take_times().items():
                result["layers"][metric] += t * scale
        error, height = check(argv, rc, out, expected)
        if error:
            result["errors"].append(error)
        elif height:
            heights[key(argv)] = height
        before = after
    result["errors"] += check_pairs(workload["pairs"], heights)
    if tracer:
        result["counts"] = dict(tracer.counts)
    return result


def measure(cli, workload_name: str, seed: int, seconds: float,
            trace: bool, expected: dict) -> dict:
    """One warm-up pass, then passes until `seconds` have passed: all
    untraced, or with --trace alternating untraced and traced passes (at
    least one of each)."""
    workload = WORKLOADS[workload_name]
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    warmup = run_pass(cli, workload, pass_order(workload["instances"], rng),
                      expected)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not plain or (trace and not traced) \
            or time.perf_counter() < deadline:
        order = pass_order(workload["instances"], rng)
        if trace and len(traced) < len(plain):
            with tracer:
                traced.append(run_pass(cli, workload, order, expected, tracer))
        else:
            plain.append(run_pass(cli, workload, order, expected))
    passes = [warmup] + plain + traced
    return {
        "plain": plain, "traced": traced,
        "attempted": sum(len(p["calls"]) for p in passes),
        "errors": [e for p in passes for e in p["errors"]],
        "kernel": [t for p in passes for t in p["kernel"]],
    }


def instance_medians(passes) -> list:
    """Each instance's median normalised time over the passes."""
    return [statistics.median(p["calls"][name] for p in passes)
            for name in passes[0]["calls"]]


def end_to_end_metrics(run: dict, setup_s: float) -> dict:
    per_instance = instance_medians(run["plain"])
    geo = math.exp(statistics.fmean(math.log(t) for t in per_instance))
    return {
        # one pass at each instance's median time: steadier than the median
        # of whole passes, since a slow spell of the host hits one instance
        "pass_s": sum(per_instance),
        "inst_geo_ms": 1000 * geo,
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(run: dict) -> dict:
    plain, traced = run["plain"], run["traced"]
    metrics = {m: statistics.median(p["layers"][m] for p in traced)
               for m in TIME_METRICS}
    # counts must repeat exactly from pass to pass; report the first pass
    metrics.update({m: traced[0]["counts"][m] for m in COUNT_METRICS})
    untraced_s = statistics.median(p["norm"] for p in plain)
    metrics.update({
        "host.wall_s": statistics.median(p["raw"] for p in plain),
        "host.ref_ms": 1000 * statistics.median(run["kernel"]),
        "trace.overhead_frac":
            statistics.median(p["norm"] for p in traced) / untraced_s - 1,
    })
    return metrics


def count_errors(run: dict) -> list:
    """Traced passes whose counts differ from the first traced pass."""
    first = run["traced"][0]["counts"]
    return [f"traced pass {i}: counts {p['counts']} differ from {first}"
            for i, p in enumerate(run["traced"]) if p["counts"] != first]


def import_cli():
    """Import flagheight.cli from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import flagheight.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "flagheight":
        raise ImportError(f"flagheight imported from {cli.__file__}, "
                          f"not from {SRC}")
    return cli


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flagheight" / "cli.py").is_file():
        print(f"error: no flagheight sources under {SRC}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    setup_s = None if args.trace else measure_setup()
    cli = import_cli()
    run = measure(cli, args.workload, args.seed, args.seconds,
                  bool(args.trace), load_expected())
    if args.trace:
        metrics, listed = per_layer_metrics(run), spec["per_layer"]
        run["errors"] += count_errors(run)
    else:
        metrics, listed = end_to_end_metrics(run, setup_s), spec["end_to_end"]
    if set(metrics) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {[m['name'] for m in listed]}")
    plain = run["plain"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)}+{len(run['traced'])} "
          f"pass_s={sum(instance_medians(plain)):.4f} "
          f"raw_pass_wall_s={statistics.median(p['raw'] for p in plain):.4f} "
          f"ref_ms={1000 * statistics.median(run['kernel']):.4f} "
          f"fail_frac={len(run['errors']) / run['attempted']:.4f}")
    for error in run["errors"][:10]:
        print(f"FAILED {error}")
    print(json.dumps({
        "correct": not run["errors"],
        "attempted": run["attempted"],
        "failed": len(run["errors"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
