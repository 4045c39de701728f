"""Self-tests of the benchmark itself (not of flagheight).

    python3 flagbench/selftest.py

Takes about two minutes on 2 cores.  Prints one PASS/FAIL line per test,
with the numbers it measured, and exits 1 if any test failed.
"""

from __future__ import annotations

import copy
import gc
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from refkernel import reference_time
from run import ROOT, benchmark_spec, import_cli, instance_medians, \
    measure, per_layer_metrics, run_pass
from tracer import COUNT_METRICS
from workloads import WORKLOADS, key, load_expected


class Failed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise Failed(message)


def test_reference_kernel_ignores_live_heap(cli, expected):
    """The kernel pauses the collector and keeps nothing, so a large live
    heap must not change its time.  The heap stays allocated throughout;
    runs alternate between the heap hidden from the collector (gc.freeze)
    and visible to it, so that neighbouring runs share the host's state,
    which switches within a second."""
    heap = [(i, Fraction(i, 7), {i: str(i)}) for i in range(300_000)]
    ratios = []
    try:
        for _ in range(300):
            gc.freeze()
            hidden = reference_time()
            gc.unfreeze()
            ratios.append(reference_time() / hidden)
    finally:
        gc.unfreeze()
        del heap
    ratio = statistics.median(ratios)
    expect(abs(ratio - 1) < 0.05,
           f"kernel time with a visible / hidden live heap = {ratio:.3f}")
    return (f"kernel time with a 300k-object live heap visible / hidden "
            f"from the collector = {ratio:.3f}")


def test_corrupt_answer_is_counted(cli, expected):
    """One wrong stored answer per workload must make exactly one instance
    fail; the stored answers as committed must make none fail."""
    notes = []
    for name, workload in WORKLOADS.items():
        order = workload["instances"]
        clean = run_pass(cli, workload, order, expected)
        expect(not clean["errors"], f"{name}: {clean['errors']}")
        bad = copy.deepcopy(expected)
        entry = bad[key(order[0])]
        if "sha256" in entry:
            entry["sha256"] = "0" * 64
        else:
            entry["doc"]["height"]["num"] += "1"
        broken = run_pass(cli, workload, order, bad)
        expect(len(broken["errors"]) == 1, f"{name}: {broken['errors']}")
        notes.append(f"{name} {len(broken['errors'])}/{len(order)}")
    return "failed with one corrupted answer: " + ", ".join(notes)


def test_traced_runs(cli, expected):
    """Two seeds give identical counts and total work; the traced metric
    names are exactly BENCHMARK.json's per_layer list; per-layer self times
    add up to the traced pass time within the trace overhead (floored at
    1%, below which it is measurement noise)."""
    listed = [m["name"] for m in benchmark_spec()["per_layer"]]
    notes = []
    for name in WORKLOADS:
        runs = [measure(cli, name, seed, 0, True, expected) for seed in (1, 2)]
        metrics = [per_layer_metrics(r) for r in runs]
        expect(sorted(metrics[0]) == sorted(listed),
               f"traced metrics {sorted(metrics[0])} != {sorted(listed)}")
        counts = [{m: mt[m] for m in COUNT_METRICS} for mt in metrics]
        expect(counts[0] == counts[1], f"{name}: counts differ by seed: "
                                       f"{counts[0]} vs {counts[1]}")
        expect(runs[0]["attempted"] == runs[1]["attempted"],
               f"{name}: attempted differs by seed")
        for run, mt in zip(runs, metrics):
            expect(not run["errors"], f"{name}: {run['errors']}")
            tolerance = max(abs(mt["trace.overhead_frac"]), 0.01)
            for p in run["traced"]:
                total = sum(p["layers"].values())
                gap = abs(total - p["norm"]) / p["norm"]
                expect(gap <= tolerance,
                       f"{name}: self times {total:.4f} s vs traced pass "
                       f"{p['norm']:.4f} s, gap {gap:.4f} > {tolerance:.4f}")
        notes.append(f"{name} overhead "
                     f"{metrics[0]['trace.overhead_frac']:+.3f}")
    return "counts equal for seeds 1 and 2; " + ", ".join(notes)


def test_normalised_time_repeats(cli, expected):
    """On a fixed instance set, normalised pass_s repeats within its bound.
    The raw wall time of the same passes is recorded beside it; on a host
    whose speed drifts it does not repeat."""
    bound = {m["name"]: m["bound"]
             for m in benchmark_spec()["end_to_end"]}["pass_s"]
    norm, raw = [], []
    for seed in range(1, 5):
        run = measure(cli, "jantzen_char", seed, 5, False, expected)
        norm.append(sum(instance_medians(run["plain"])))
        raw.append(statistics.median(p["raw"] for p in run["plain"]))
    spread = (max(norm) - min(norm)) / statistics.median(norm)
    raw_spread = (max(raw) - min(raw)) / statistics.median(raw)
    expect(spread <= bound, f"normalised pass range {spread:.3f} > {bound}")
    return (f"jantzen_char pass range: normalised {spread:.3f}, "
            f"raw {raw_spread:.3f} (normalised {[round(x, 3) for x in norm]},"
            f" raw {[round(x, 3) for x in raw]})")


def test_fails_without_sources(cli, expected):
    """In a directory holding only BENCHMARK.json and flagbench/, the
    benchmark exits non-zero and prints no result."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(Path(__file__).resolve().parent,
                        Path(tmp) / "flagbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "flagbench/run.py", "--workload", "borel_all",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0, "exit code 0 without sources")
    expect(not proc.stdout.strip(), f"printed {proc.stdout!r}")
    return f"exit code {proc.returncode}, nothing on stdout"


TESTS = [
    test_reference_kernel_ignores_live_heap,
    test_corrupt_answer_is_counted,
    test_traced_runs,
    test_normalised_time_repeats,
    test_fails_without_sources,
]


def main() -> int:
    cli = import_cli()
    expected = load_expected()
    failed = 0
    for test in TESTS:
        try:
            note = test(cli, expected)
            print(f"PASS {test.__name__}: {note}", flush=True)
        except Failed as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
