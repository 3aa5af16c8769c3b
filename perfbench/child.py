"""Worker process: imports the program, then runs one workload's queries.

Run as ``python3 perfbench/child.py --probe`` it only imports
``knotbound.cli`` and reports ready, which is what set-up time measures,
then the median time of a few reference jobs.
Otherwise it reads a query list, signals ready, runs as many whole passes
over the list as fit in ``--seconds`` (but at least ``workloads.MIN_PASSES``),
and appends each pass's results to ``--out`` as one JSON line as soon as the
pass ends, so the worker holds one pass at a time.  The last line holds the
run's totals.  Outputs are checked afterwards by the parent, outside the
timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

PROBE_REFERENCES = 5  # reference jobs a set-up probe runs after it is ready


def _materialize(query: dict, outputs: list, tmpdir: str, cache_dir: str) -> list[str]:
    """Concrete argv: write the PD file a query reads, fill placeholders."""
    pd_path = os.path.join(tmpdir, "diagram.pd")
    if "pd_text" in query:
        with open(pd_path, "w") as fh:
            fh.write(query["pd_text"])
    elif "pd_from" in query:
        with open(pd_path, "w") as fh:
            fh.write(outputs[query["pd_from"]]["stdout"])
    return [
        a.replace("{pd}", pd_path).replace("{cache}", cache_dir)
        for a in query["argv"]
    ]


def reference() -> float:
    """CPU seconds of a fixed pure-Python job: repeated products of sparse
    two-variable polynomials held as dicts keyed by tuples of ints.

    The job is the benchmark's own, not the program's, so a change to the
    program leaves it alone; it resembles the program's Laurent-polynomial
    and memo work, so it slows down with the machine as the program does.
    The garbage collector is paused so that the program's heap does not
    change the job's cost.
    """
    gc.disable()
    try:
        t0 = time.process_time()
        seen: dict[tuple, int] = {}
        poly = {(0, 0): 1}
        for _ in range(12):
            product: dict[tuple, int] = {}
            for (a, b), c in poly.items():
                for da, db, dc in ((1, 0, 3), (-1, 1, -1), (0, -1, 2), (2, 1, 1)):
                    key = (a + da, b + db)
                    product[key] = product.get(key, 0) + c * dc
            poly = {k: v for k, v in product.items() if v}
            seen[tuple(sorted(poly))] = len(poly)
        elapsed = time.process_time() - t0
    finally:
        gc.enable()
    assert len(seen) == 12
    return elapsed


def run_pass(queries: list[dict], memo_clear: str, tmpdir: str, tracer=None) -> dict:
    """One pass over the queries with a fresh result-cache directory.

    Returns the per-query results and the cache file size at the end.
    Only the ``cli.main`` call itself is timed: ``seconds`` is the worker's
    CPU time over the call, ``wall`` its wall time.  The program is
    single-threaded and never waits on I/O here, so the two agree on an
    idle machine, but CPU time leaves out time the hypervisor steals.
    ``reference`` is the time of the reference job run just before.
    """
    cli = importlib.import_module("knotbound.cli")
    homfly_mod = importlib.import_module("knotbound.homfly")
    cache_dir = os.path.join(tmpdir, "cache")
    os.makedirs(tmpdir, exist_ok=True)
    shutil.rmtree(cache_dir, ignore_errors=True)
    homfly_mod.clear_cache()
    results: list[dict] = []
    for index, query in enumerate(queries):
        if memo_clear == "query":
            homfly_mod.clear_cache()
        argv = _materialize(query, results, tmpdir, cache_dir)
        ref = reference()
        out, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.begin_query(index)
            w0, t0 = time.perf_counter(), time.process_time()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.process_time() - t0
            wall = time.perf_counter() - w0
            if tracer is not None:
                tracer.end_query()
        results.append({
            "exit": code,
            "error": error,
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-300:],
            "seconds": elapsed,
            "wall": wall,
            "reference": ref,
        })
    cache_file = os.path.join(cache_dir, "invariants.jsonl")
    cache_bytes = os.path.getsize(cache_file) if os.path.exists(cache_file) else 0
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {"results": results, "cache_bytes": cache_bytes}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--queries")
    parser.add_argument("--out")
    parser.add_argument("--tmpdir")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    import knotbound.cli  # noqa: F401  (a statement, so -X importtime sees it)

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.probe:
        refs = sorted(reference() for _ in range(PROBE_REFERENCES))
        sys.stdout.write(f"reference {refs[len(refs) // 2]!r}\n")
        return 0

    import workloads

    memo_clear = workloads.MEMO_CLEAR[args.workload]
    with open(args.queries) as fh:
        queries = json.load(fh)
    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
    passes = 0
    start = time.perf_counter()
    with open(args.out, "w") as out, (
            tracer if tracer is not None else contextlib.nullcontext()):
        while True:
            t0 = time.perf_counter()
            result = run_pass(queries, memo_clear, args.tmpdir, tracer)
            now = time.perf_counter()
            passes += 1
            cache_bytes = result["cache_bytes"]
            out.write(json.dumps(result) + "\n")
            del result
            # Stop when another pass like the last would overrun --seconds.
            if (passes >= workloads.MIN_PASSES
                    and now + (now - t0) - start > args.seconds):
                break
        wall = time.perf_counter() - start
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        summary = {"wall_s": wall, "peak_rss_kib": peak_kib}
        if tracer is not None:
            summary["layers"] = tracer.metrics(cache_bytes, passes)
            tracer.write_spans(args.trace_out)
        out.write(json.dumps({"summary": summary}) + "\n")
    shutil.rmtree(args.tmpdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
