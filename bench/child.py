"""One cold repetition of a benchmark workload, run in a fresh interpreter.

Usage (started by run.py, never by hand):

    python bench/child.py SPAWNED SRC_DIR RESULT_PATH WORKLOAD SPEC_JSON

SPAWNED is the parent's time.monotonic() just before it started this process;
CLOCK_MONOTONIC is system-wide, so the difference to the moment qbps is
imported is the set-up time.  SPEC_JSON holds the workload's resolved orders,
the mode ("time", "trace" or "setup") and an optional injected failure.  The result goes to RESULT_PATH as JSON; table output goes to stdout.
"""

import sys
import time

_spawned = float(sys.argv[1])
sys.path.insert(0, sys.argv[2])
import qbps  # noqa: E402  (set-up time is measured from spawn through this import)

if sys.argv[4] == "table_bps":
    import qbps.cli  # noqa: E402,F401
_ready = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402


def _peak_rss_mib():
    # VmHWM belongs to this process image alone; ru_maxrss would also count the
    # parent's pages when the child was started by vfork.
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _check_record(check):
    return {"name": check.name, "modulus": check.modulus, "order": check.order,
            "passed": check.passed,
            "first_failure": None if check.first_failure is None
            else [str(v) for v in check.first_failure]}


def _table_args(spec):
    return ["table", "--kind", "bps", "--terms", str(spec["order"]), "--format", "csv"]


def _run_untraced(spec):
    """The workload call as a user makes it; returns (wall seconds, checks)."""
    if spec["workload"] == "table_bps":
        start = time.perf_counter()
        qbps.cli.main.main(args=_table_args(spec), prog_name="qbps", standalone_mode=False)
        sys.stdout.flush()
        return time.perf_counter() - start, []
    start = time.perf_counter()
    checks = qbps.run_all(order=spec["order"], support_order=spec["support_order"],
                          names=spec["names"], perturbations=spec["perturbations"])
    return time.perf_counter() - start, checks


def _run_traced(spec, tracer):
    """The same calls, with one top-level span per check (or the cli command)."""
    if spec["workload"] == "table_bps":
        command = tracer.wrap("cli", qbps.cli.main.main)
        start = time.perf_counter()
        command(args=_table_args(spec), prog_name="qbps", standalone_mode=False)
        sys.stdout.flush()
        return time.perf_counter() - start, []
    names = spec["names"] or qbps.CHECK_NAMES
    checks = []
    start = time.perf_counter()
    # run_all walks CHECK_NAMES in order and the q-form cache is process-wide,
    # so one call per check does exactly the work of the single call.
    for name in qbps.CHECK_NAMES:
        if name in names:
            one = tracer.wrap(f"congruence.{name}", qbps.run_all)
            checks += one(order=spec["order"], support_order=spec["support_order"],
                          names=[name], perturbations=spec["perturbations"])
    return time.perf_counter() - start, checks


def main():
    result_path = sys.argv[3]
    spec = json.loads(sys.argv[5])
    spec["perturbations"] = {k: tuple(v) for k, v in spec["perturbations"].items()}
    result = {"setup_s": _ready - _spawned,
              "qbps_file": os.path.realpath(qbps.__file__)}
    if spec["mode"] == "time":
        result["wall_s"], checks = _run_untraced(spec)
    elif spec["mode"] == "trace":
        import layers
        tracer = layers.Tracer()
        tracer.install(qbps)
        result["wall_s"], checks = _run_traced(spec, tracer)
        output_bytes = os.fstat(sys.stdout.fileno()).st_size if spec["workload"] == "table_bps" else 0
        result["layers"] = tracer.layer_metrics(checks, output_bytes)
        result["top_level_s"] = tracer.top_level_seconds()
        tracer.write_spans(spec["spans_path"])
    else:
        checks = []
    result["peak_rss_mib"] = _peak_rss_mib()
    result["checks"] = [_check_record(c) for c in checks]
    with open(result_path, "w") as out:
        json.dump(result, out)


if __name__ == "__main__":
    main()
