"""End-to-end and per-layer benchmark of qbps.

Run from the root of a source checkout (nothing needs installing; the
children import qbps from src/):

    python3 bench/run.py                       # every workload, untraced and traced
    python3 bench/run.py --workload table_bps --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload verify_default --inject-failure

Every repetition runs in a fresh interpreter (bench/child.py), one child at a
time: the q-form catalog is a process-wide cache, so a second in-process
repetition would find P, G and P^alpha already built, while every `qbps`
invocation and every fresh run_all() pays for them.  Each output is checked
outside the timed window against the requested orders and, for the table,
against the independent direct routes.

The seed picks each workload's truncation order inside a small window above
its base order (seed 0 gives the base orders); the program only ever sees the
orders.  Untraced runs give the end-to-end metrics; --trace 1 gives the
per-layer metrics of bench/layers.py from one untraced and two traced
repetitions, and fails if the exact counts of the two traced ones differ.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object {correct, attempted, failed, metrics} holding the
metrics BENCHMARK.json declares for the mode.  Each run also writes its
environment, orders, samples and metrics to .bench_out/.  The exit status is
non-zero when any output check fails.
"""

import argparse
import csv
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".bench_out"

CONGRUENCE_CHECKS = ["mod10", "mod5_reduction", "support_lemma",
                     "support_consequence", "mod2_reduction", "parity_factor"]

# base: order at seed 0; step: order added per unit of seed offset.  Why each
# workload is here is stated in BENCHMARK.json.
WORKLOADS = {
    "verify_default": {"base": 1000, "step": 1, "support_base": 10000, "support_step": 10,
                       "names": None},
    "congruence_deep": {"base": 5000, "step": 5, "names": CONGRUENCE_CHECKS},
    "table_bps": {"base": 2000, "step": 2, "names": None},
}
SEED_WINDOW = 10            # offsets 0..SEED_WINDOW steps above the base order
SETUP_PROBES = 12           # import-only children per run, besides each repetition
HARD_LIMIT_S = 170.0        # a run ends within this, killing a child that overruns
REFERENCE_ROWS = 200        # table rows compared with the direct routes
SPOT_VALUES = {1: (-1, 0), 2: (-15, 1)}   # n -> (a(beta_n), b(beta_n))
INTEGER = re.compile(r"-?\d+\Z")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
                    "fail_frac": "ratio"}


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def resolve(workload, seed, inject):
    """The orders a seed selects, as the spec a child receives."""
    w = WORKLOADS[workload]
    offset = seed % (SEED_WINDOW + 1)
    spec = {"workload": workload, "order": w["base"] + w["step"] * offset,
            "support_order": None, "names": w["names"], "perturbations": {}}
    if "support_base" in w:
        spec["support_order"] = w["support_base"] + w["support_step"] * offset
    if inject and workload != "table_bps":
        spec["perturbations"] = {"mod10": [1, 1]}
    return spec


def environment(seed, spec):
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            model = next((line.split(":", 1)[1].strip() for line in info
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform(),
            "seed": seed, "order": spec["order"], "support_order": spec["support_order"]}


class Run:
    """Children of one benchmark run, spawned one at a time, with their checks."""

    def __init__(self, spec, inject):
        self.spec = spec
        self.inject = inject
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._reference = None
        OUT.mkdir(exist_ok=True)

    def spawn(self, mode, spans_path=None):
        """One child; returns its result dict with cpu_s added, or None if it failed."""
        result_path = OUT / "child-result.json"
        table_path = OUT / "table_bps.csv"
        result_path.unlink(missing_ok=True)
        spec = dict(self.spec, mode=mode, spans_path=spans_path and str(spans_path))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(table_path if self.spec["workload"] == "table_bps" else os.devnull, "w") as out:
            spawned = time.monotonic()
            child = subprocess.Popen(
                [sys.executable, str(CHILD), repr(spawned), str(SRC), str(result_path),
                 self.spec["workload"], json.dumps(spec)],
                stdin=subprocess.DEVNULL, stdout=out, cwd=ROOT)
            try:
                child.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
                self.problems.append(f"{mode} child killed after the {HARD_LIMIT_S:.0f} s limit")
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if child.returncode != 0 or not result_path.exists():
            self.problems.append(f"{mode} child exited with status {child.returncode}")
            result = None
        else:
            result = json.loads(result_path.read_text())
            result["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            if Path(result["qbps_file"]).parent != (SRC / "qbps").resolve():
                self.problems.append(f"child imported qbps from {result['qbps_file']}")
                result = None
        if mode != "setup":
            self.check(result, table_path)
        return result

    def expected_checks(self):
        import qbps
        names = self.spec["names"] or qbps.CHECK_NAMES
        support = self.spec["support_order"] or self.spec["order"]
        return {name: support if name == "support_lemma" else self.spec["order"]
                for name in names}

    def check(self, result, table_path):
        """Count this repetition's operations and the ones that came out wrong."""
        if self.spec["workload"] == "table_bps":
            attempted, bad = self.check_table(result, table_path)
        else:
            expected = self.expected_checks()
            records = {c["name"]: c for c in (result or {"checks": []})["checks"]}
            attempted = len(expected)
            bad = [name for name, order in expected.items()
                   if name not in records or not records[name]["passed"]
                   or records[name]["order"] != order]
            self.problems += [f"check {name} failed: {records.get(name)}" for name in bad[:3]]
            bad = len(bad)
        self.attempted += attempted
        self.failed += bad

    def reference(self):
        if self._reference is None:
            import qbps
            self._reference = (qbps.a_direct_series(REFERENCE_ROWS).coefficients,
                               qbps.b_direct_series(REFERENCE_ROWS).coefficients)
        return self._reference

    def check_table(self, result, table_path):
        expected = self.spec["order"] + 1
        if result is None:
            return expected, expected
        with open(table_path, newline="") as table:
            rows = list(csv.reader(table))
        if not rows or rows[0] != ["n", "a", "b"]:
            self.problems.append(f"table header is {rows[:1]}")
            return expected, expected
        rows = rows[1:]
        if self.inject:
            rows[1][2] = str(int(rows[1][2]) + 1)
        ref_a, ref_b = self.reference()
        bad = []
        for n, row in enumerate(rows[:expected]):
            ok = (len(row) == 3 and row[0] == str(n)
                  and INTEGER.match(row[1]) is not None and INTEGER.match(row[2]) is not None)
            if ok and n in SPOT_VALUES:
                ok = (int(row[1]), int(row[2])) == SPOT_VALUES[n]
            if ok and n <= REFERENCE_ROWS:
                ok = int(row[1]) == ref_a[n] and int(row[2]) == ref_b[n]
            if not ok:
                bad.append(n)
        missing_or_extra = abs(len(rows) - expected)
        if bad or missing_or_extra:
            self.problems.append(f"table: {len(bad)} wrong rows (first {bad[:3]}), "
                                 f"{len(rows)} rows for {expected} expected")
        return max(expected, len(rows)), len(bad) + missing_or_extra


def measure(run, seconds):
    """End-to-end metrics: repetitions until `seconds` have passed, the median of each."""
    run.spawn("setup")       # untimed: writes bytecode caches and warms the file cache
    samples = {name: [] for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mib")}
    for _ in range(SETUP_PROBES):
        probe = run.spawn("setup")
        if probe:
            samples["setup_s"].append(probe["setup_s"])
    end = time.monotonic() + seconds
    while True:
        began = time.monotonic()
        rep = run.spawn("time")
        if rep:
            for name in samples:
                samples[name].append(rep[name])
        now = time.monotonic()
        if now >= end or now + (now - began) > run.deadline:
            break
    metrics = {name: statistics.median(values) for name, values in samples.items() if values}
    metrics["fail_frac"] = run.failed / run.attempted
    return metrics, samples


def measure_layers(run, workload, seed):
    """Per-layer metrics: one untraced and two traced repetitions of one seed."""
    untraced = run.spawn("time")
    traced = [run.spawn("trace", OUT / f"spans-{workload}-seed{seed}-rep{k}.json")
              for k in (1, 2)]
    if untraced is None or None in traced:
        return {}
    import layers
    first, second = (t["layers"] for t in traced)
    differing = [name for name in layers.EXACT_COUNTS if first[name] != second[name]]
    run.attempted += 1       # the self-check that the exact counts repeat
    if differing:
        run.failed += 1
        run.problems.append(f"traced counts differ between two runs: {differing}")
    metrics = {name: statistics.median([first[name], second[name]])
               if layer_unit(name) == "s" else first[name] for name in first}
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics["trace_overhead_s"] = traced_wall - untraced["wall_s"]
    top = statistics.median(t["top_level_s"] for t in traced)
    print(f"# top-level spans {top:.4f} s; traced wall {traced_wall:.4f} s; untraced wall "
          f"{untraced['wall_s']:.4f} s; spans minus untraced {top - untraced['wall_s']:+.4f} s "
          f"against trace_overhead_s {metrics['trace_overhead_s']:+.4f} s")
    for layer, (target, where) in layers.LAYER_TARGETS.items():
        print(f"# {layer} -> {target} on {where}")
    return metrics


def run_one(workload, seed, seconds, trace, inject):
    spec = resolve(workload, seed, inject)
    env = environment(seed, spec)
    print(f"# {workload}: {json.dumps(env)}")
    run = Run(spec, inject)
    if trace:
        metrics, samples = measure_layers(run, workload, seed), {}
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, samples = measure(run, seconds)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        count = f" (median of {len(samples[name])})" if name in samples else ""
        print(f"{workload} {name} = {value!r} {units[name]}{count}")
    print(f"{workload} operations: {run.attempted} attempted, {run.failed} failed")
    for problem in run.problems:
        print(f"{workload} FAILED: {problem}")
    report = {"workload": workload, "trace": trace, "environment": env, "samples": samples,
              "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    correct = run.failed == 0 and not run.problems
    return correct, run, report["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-failure", action="store_true",
                        help="perturb mod10 through run_all(perturbations=...), or corrupt "
                             "one table row, to show the output checks catch it")
    args = parser.parse_args()
    if not (SRC / "qbps" / "__init__.py").is_file():
        sys.exit(f"no qbps sources under {SRC}: run from a qbps source checkout")
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        all_correct = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                correct, _, _ = run_one(workload, args.seed, args.seconds, trace,
                                        args.inject_failure)
                all_correct &= correct
        sys.exit(0 if all_correct else 1)

    correct, run, metrics = run_one(args.workload, args.seed, args.seconds, args.trace,
                                    args.inject_failure)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {name: metrics[name] for name in wanted if name in metrics}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
