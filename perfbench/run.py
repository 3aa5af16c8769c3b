"""knotbound benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload bounds-cold --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each run spawns fresh child processes, one
after another: set-up probes that only import ``knotbound.cli``, then one
worker that issues the workload's queries to ``knotbound.cli.main`` in a
closed loop with one client.  The worker makes as many whole passes over
the seeded query list as fit in ``--seconds``, and at least three.  Outputs
are checked here, after the worker has exited.

Times are calibrated against a reference job, a fixed piece of the
benchmark's own Python that the worker runs before every query (see
``child.reference``).  A query's time is its CPU time scaled by
``REFERENCE_S`` over the median time of the reference jobs around it, so a
machine that runs all Python slower for a while, as a shared host does
when other tenants are busy, moves the figures much less than it moves the
raw times.  ``REFERENCE_S`` is a fixed scale, about the reference job's
typical time on the 2-core x86 VM the benchmark was tuned on, so there
the calibrated times are close to the raw ones.  A query's
latency is the median of its calibrated times over the passes.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced worker, as means
per pass, and the tracing overhead against an untraced worker running the
same passes.  Earlier lines give a readable summary and the run's Python
version and git sha.

``--record`` writes ``expected/<workload>.json``, the byte-exact stdout
digests the output gate compares against; it is meant to be run once, at
the commit whose outputs define correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")
PROGRAM = os.path.join(ROOT, "src", "knotbound", "cli.py")

DEADLINE_S = 170.0  # a run must finish within 180 s
RUN_SECONDS = 40.0  # BENCHMARK.json's run_seconds
SETUP_PROBES = 11
REFERENCE_S = 0.0012  # about the reference job's CPU time on a 2-core x86 VM
REFERENCE_WINDOW = 5  # reference jobs on each side of a query that calibrate it
MODULES = ("knotbound", "knotbound.braid", "knotbound.laurent", "knotbound.homfly",
           "knotbound.seifert", "knotbound.khovanov", "knotbound.bounds",
           "knotbound.cache", "knotbound.verify", "knotbound.cli")


class RunFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("KNOTBOUND_CACHE", None)  # the result cache is opt-in per query
    env.pop("PYTHONPATH", None)
    return env


def _remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 1:
        raise RunFailed("run deadline reached")
    return left


def _spawn(args: list[str], started: float, extra: tuple = ()) -> tuple[float, str, str]:
    """Start a child, time it to its ready line, wait for it to exit.

    Returns (seconds from spawn to ready, the rest of stdout, stderr).
    """
    t0 = time.perf_counter()
    # Unbuffered, so that reading the ready line takes nothing after it:
    # communicate() reads the pipe itself and would miss buffered output.
    proc = subprocess.Popen(
        [sys.executable, *extra, CHILD, *args], cwd=ROOT, env=_child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        bufsize=0,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, err = proc.communicate(timeout=_remaining(started))
    except (subprocess.TimeoutExpired, RunFailed):
        proc.kill()
        proc.communicate()
        raise RunFailed("child process timed out")
    out, err = out.decode(), err.decode(errors="replace")
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RunFailed(f"child failed (exit {proc.returncode}): {err[-2000:]}")
    return ready, out, err


def _setup_seconds(started: float) -> tuple[float, float]:
    """Median over the probes of the calibrated and the raw set-up time.

    A probe's set-up time is calibrated by the reference jobs it runs once
    it is ready.
    """
    _spawn(["--probe"], started)  # untimed: compiles bytecode once
    calibrated, raw = [], []
    for _ in range(SETUP_PROBES):
        ready, out, _ = _spawn(["--probe"], started)
        reference = float(out.split()[-1])
        calibrated.append(ready * REFERENCE_S / reference)
        raw.append(ready)
    return statistics.median(calibrated), statistics.median(raw)


def _import_times(started: float) -> dict[str, float]:
    """Self import time of each knotbound module, from ``-X importtime``."""
    _spawn(["--probe"], started)  # untimed: compiles bytecode once
    err = _spawn(["--probe"], started, extra=("-X", "importtime"))[2]
    times: dict[str, float] = {}
    for line in err.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s+(\S+)", line.strip())
        if m and m.group(3) in MODULES:
            times[m.group(3)] = int(m.group(1)) / 1e6
            if m.group(3) == "knotbound.cli":
                times["total"] = int(m.group(2)) / 1e6
    return times


def _run_worker(workload: str, queries_path: str, tag: str, started: float,
                seconds: float, trace: bool) -> dict:
    """Run a worker; returns its passes and the totals of its last line."""
    out = os.path.join(OUT_DIR, f"{tag}.jsonl")
    args = ["--workload", workload, "--queries", queries_path, "--out", out,
            "--tmpdir", os.path.join(OUT_DIR, f"{tag}.tmp"),
            "--seconds", str(seconds)]
    if trace:
        args += ["--trace-out", os.path.join(OUT_DIR, f"{tag}.spans.jsonl")]
    _spawn(args, started)
    with open(out) as fh:
        lines = [json.loads(line) for line in fh]
    os.remove(out)
    record = lines.pop()["summary"]
    record["passes"] = lines
    return record


def _check(workload: str, queries: list[dict], record: dict) -> tuple[int, int, bool, list]:
    """(attempted, failed, correct, failure notes) over every pass.

    ``correct`` is false when any valid query failed, i.e. a computed
    invariant was wrong or missing; a bad input that misses its documented
    exit code counts as failed without making the output incorrect.  A pass
    whose every exit code, error and output equals an already checked
    pass's gets that pass's verdicts.
    """
    checker = checks.Checker(workload)
    verdicts: dict[tuple, list[str]] = {}
    attempted = failed = 0
    correct = True
    notes = []
    for p in record["passes"]:
        seen = tuple((r["exit"], r["error"], r["stdout"]) for r in p["results"])
        if seen not in verdicts:
            verdicts[seen] = checks.check_pass(checker, queries, p["results"])
        for q, reason in zip(queries, verdicts[seen]):
            attempted += 1
            failed += 1 if reason else 0
            if reason and q["kind"] == "good":
                correct = False
            if reason and len(notes) < 20:
                notes.append({"argv": q["argv"][:3], "kind": q["kind"],
                              "reason": reason})
    return attempted, failed, correct, notes


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _calibrated(results: list[dict]) -> list[float]:
    """Calibrated seconds of each query of one pass.

    A query's CPU time is scaled by ``REFERENCE_S`` over the median of the
    reference jobs run before it and its neighbours in the pass.
    """
    refs = [r["reference"] for r in results]
    w = REFERENCE_WINDOW
    return [r["seconds"] * REFERENCE_S / statistics.median(refs[max(0, i - w):i + w + 1])
            for i, r in enumerate(results)]


def _latencies(record: dict) -> list[float]:
    """Each query's latency: the median of its calibrated times over the passes."""
    per_pass = [_calibrated(p["results"]) for p in record["passes"]]
    return [statistics.median(times) for times in zip(*per_pass)]


def _throughput(record: dict) -> float:
    """Median over the passes of a pass's queries over its calibrated time."""
    return statistics.median(len(p["results"]) / sum(_calibrated(p["results"]))
                             for p in record["passes"])


def _stdouts(record: dict) -> list[str]:
    return [r["stdout"] for p in record["passes"] for r in p["results"]]


def end_to_end(record: dict, setup_s: float, attempted: int, failed: int) -> dict:
    ms = [x * 1000 for x in _latencies(record)]
    return {
        "throughput_qps": (_throughput(record), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (record["peak_rss_kib"] / 1024, "MiB"),
        "success_rate": (1 - failed / attempted, "ratio"),
    }


def per_layer(layers: dict, overhead: float, imports: dict) -> dict:
    metrics = {name: (layers[name], unit)
               for name, unit in tracing.LAYER_METRICS.items()}
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    for mod in MODULES:
        metrics[f"import.{mod.rpartition('.')[2]}_s"] = (imports.get(mod, 0.0), "s")
    metrics["import.total_s"] = (imports.get("total", 0.0), "s")
    return metrics


def record_expected(workload: str, seed: int, started: float,
                    queries_path: str, queries: list[dict]) -> None:
    record = _run_worker(workload, queries_path, f"record-{workload}", started,
                         0.0, False)
    checker = checks.Checker(workload)
    checker.expected = {}
    reasons = checks.check_pass(checker, queries, record["passes"][0]["results"])
    outputs = {}
    for q, r, reason in zip(queries, record["passes"][0]["results"], reasons):
        if q["kind"] != "good":
            continue
        if reason:
            raise RunFailed(f"cannot record a failing query {q['argv']}: {reason}")
        outputs[checks.query_key(q)] = checks.digest(r["stdout"])
    os.makedirs(checks.EXPECTED_DIR, exist_ok=True)
    path = os.path.join(checks.EXPECTED_DIR, f"{workload}.json")
    with open(path, "w") as fh:
        json.dump({"seed": seed, "git_sha": _git_sha(), "outputs": outputs}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(outputs)} outputs to {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the expected-output digests and exit")
    args = parser.parse_args()
    started = time.perf_counter()

    if not os.path.exists(PROGRAM):
        print(f"error: the program is missing ({os.path.relpath(PROGRAM, ROOT)}); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    queries = workloads.generate(args.workload, args.seed)
    queries_path = os.path.join(OUT_DIR, f"{tag}.queries.json")
    with open(queries_path, "w") as fh:
        json.dump(queries, fh)

    raw_setup_s = None
    try:
        if args.record:
            record_expected(args.workload, args.seed, started, queries_path, queries)
            return 0
        if args.trace:
            imports = _import_times(started)
            plain = _run_worker(args.workload, queries_path, tag + "-plain", started,
                                0.0, False)
            record = _run_worker(args.workload, queries_path, tag, started,
                                 0.0, True)
            overhead = _throughput(plain) / _throughput(record) - 1
            attempted, failed, correct, notes = _check(args.workload, queries, record)
            if _stdouts(plain) != _stdouts(record):
                correct = False
                notes.append({"reason": "traced and untraced outputs differ"})
            metrics = per_layer(record["layers"], overhead, imports)
        else:
            setup_s, raw_setup_s = _setup_seconds(started)
            record = _run_worker(args.workload, queries_path, tag, started,
                                 args.seconds, False)
            attempted, failed, correct, notes = _check(args.workload, queries, record)
            metrics = end_to_end(record, setup_s, attempted, failed)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        os.remove(queries_path)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "git_sha": _git_sha(),
        "passes": len(record["passes"]), "queries_per_pass": len(queries),
        "latency_samples": len(queries),
        "timed_calls": sum(len(p["results"]) for p in record["passes"]),
        "wall_s": record["wall_s"],
        # Uncalibrated figures, summed over every timed call, for comparison.
        "query_cpu_s": sum(r["seconds"] for p in record["passes"] for r in p["results"]),
        "query_wall_s": sum(r["wall"] for p in record["passes"] for r in p["results"]),
        "reference_median_s": statistics.median(
            r["reference"] for p in record["passes"] for r in p["results"]),
        "raw_setup_s": raw_setup_s,
        "failures": notes,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.run.json"), "w") as fh:
        json.dump({"info": info, "metrics": metrics}, fh, indent=1)
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:.6g} {unit}")
    print("# " + json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
