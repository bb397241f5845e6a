"""One workload in a fresh interpreter: set up, time or trace, check.

run.py starts this file with PYTHONPATH pointing at the source tree:

    worker.py --workload W --seed S --seconds T --mode setup|timed|trace --work DIR

Every operation is one ``starconfig.cli.run(argv)`` call on a generated
arrangement file, with stdout captured and parsed as the JSON report.
No state carries across operations: each call parses its file afresh.
The last stdout line is a JSON object that run.py turns into the
benchmark result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import starconfig.cli  # noqa: E402  (the package import is part of set-up)

import checks  # noqa: E402
from reference import reference_seconds, scaled  # noqa: E402
from tracer import Tracer, layer_metrics, median_metrics  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def call(argv):
    """One CLI operation: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = starconfig.cli.run(argv)
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def run_pass(ops):
    """Every operation once, in order, with the reference computation
    timed before the first and after each.  Returns (scaled seconds of
    the pass, [call results], [scaled seconds per operation])."""
    gc.collect()
    refs = [reference_seconds()]
    results = []
    for _, _, argv in ops:
        results.append(call(argv))
        refs.append(reference_seconds())
    times = [scaled(r[1], (refs[i] + refs[i + 1]) / 2) for i, r in enumerate(results)]
    return sum(times), results, times


def report_of(result):
    code, _, out, _ = result
    if code != 0:
        return None
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def without_times(doc):
    if isinstance(doc, dict):
        return {k: without_times(v) for k, v in doc.items() if k != "wall_time_seconds"}
    if isinstance(doc, list):
        return [without_times(v) for v in doc]
    return doc


def check_outputs(made, ops, passes, seed):
    """Problems found in the outputs; failed operations are skipped."""
    problems = []
    for i, (index, op, argv) in enumerate(ops):
        reports = [report_of(results[i]) for _, results, _ in passes]
        if any(r is None for r in reports):
            continue
        if any(without_times(r) != without_times(reports[0]) for r in reports[1:]):
            problems.append(f"op {i} {' '.join(argv)}: output differs between passes")
        report = reports[-1]
        case, rows, path = made[index]
        p, kind = case.p, op[0]
        rng = checks.seeded_rng(seed, i)
        try:
            if kind == "verify":
                j = int(op[-1])
                gens = report_of(call(["stci-gens", "--j", str(j), str(path)]))
                found = ["stci-gens failed"] if gens is None else checks.check_verify(
                    rows, p, j, report, gens, rng
                )
            elif kind == "radical":
                j = int(op[-1])
                primes = report_of(call(["min-primes", "--j", str(j), str(path)]))
                found = ["min-primes failed"] if primes is None else checks.check_min_primes(
                    rows, p, j, primes
                )
                found += checks.check_radical(rows, p, j, report)
            elif kind == "min-primes":
                found = checks.check_min_primes(rows, p, int(op[-1]), report)
            elif kind == "sv-partition":
                found = checks.check_partition(rows, p, report, rng)
            elif kind == "height":
                found = checks.check_heights(rows, report)
            elif kind == "min-distance":
                found = checks.check_distance(rows, report)
            else:
                found = [f"no check for {kind}"]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            found = [f"malformed report: {e!r}"]
        problems += [f"op {i} {' '.join(argv)}: {msg}" for msg in found]
    return problems


def timed(made, ops, seconds):
    """Whole passes until the next one would end past seconds + half a pass."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            break
    # scaling removes most of a shared machine's drift; medians over the
    # passes damp what is left, and a shape's mean over its arrangements
    # evens out how the cost varies with the coefficients
    medians = [statistics.median(times[i] for _, _, times in passes) for i in range(len(ops))]
    shapes = {}
    for (index, op, _), median in zip(ops, medians):
        case = made[index][0]
        shapes.setdefault((case.k, case.n, case.p, op), []).append(median)
    metrics = {
        "wall_s": sum(medians),
        "max_case_s": max(statistics.mean(times) for times in shapes.values()),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unscaled = [statistics.median(r[i][1] for _, r, _ in passes) for i in range(len(ops))]
    return passes, metrics, {"passes": len(passes), "unscaled_wall_s": sum(unscaled)}


def traced(ops, seconds, work):
    """An untraced pass, span passes, then one counting pass."""
    start = time.perf_counter()
    untraced = run_pass(ops)
    passes = [untraced]
    samples = []
    tracer = Tracer()
    tracer.install_spans()
    try:
        while True:
            lo, rref = len(tracer.spans), tracer.count("arrangements.rref.calls")
            passes.append(run_pass(ops))
            sample = layer_metrics(tracer.spans, lo, len(tracer.spans))
            # one factor per pass: the pass's scaled over unscaled time
            factor = passes[-1][0] / sum(r[1] for r in passes[-1][1])
            sample = {k: v * factor if k.endswith((".s", "_s")) else v for k, v in sample.items()}
            sample["arrangements.rref.calls"] = tracer.count("arrangements.rref.calls") - rref
            samples.append(sample)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) / 2 >= seconds:
                break
    finally:
        tracer.undo()
    counter = Tracer()
    counter.install_counters()
    try:
        passes.append(run_pass(ops))
    finally:
        counter.undo()
    metrics = median_metrics(samples)
    for name in ("orders.mono_mul.calls", "orders.mono_divides.calls", "fields.mul.calls", "fields.inv.calls"):
        metrics[name] = counter.count(name)
    traced_wall = statistics.median(wall for wall, _, _ in passes[1 : 1 + len(samples)])
    notes = {
        "untraced_wall_s": untraced[0],
        "traced_wall_s": traced_wall,
        "trace_overhead": traced_wall / untraced[0],
        "counting_wall_s": passes[-1][0],
        "spans": len(tracer.spans),
    }
    tracer.dump(work / "spans.jsonl", start)
    return passes, metrics, notes


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    made = generate(args.workload, args.seed, args.work)
    setup_s = scaled(time.perf_counter() - T0, statistics.median(reference_seconds() for _ in range(3)))
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    ops = [
        (index, op, [*op, str(path)])
        for index, (case, _, path) in enumerate(made)
        for op in case.ops
    ]
    if args.mode == "timed":
        passes, metrics, notes = timed(made, ops, args.seconds)
    else:
        passes, metrics, notes = traced(ops, args.seconds, args.work)
    attempted = len(ops) * len(passes)
    failed = sum(report_of(r) is None for _, results, _ in passes for r in results)
    problems = check_outputs(made, ops, passes, args.seed)
    for msg in problems:
        print(f"check: {msg}", file=sys.stderr)
    for (_, _, argv), (code, _, _, err) in zip(ops, passes[0][1]):
        if code != 0:
            print(f"failed ({code}): {' '.join(argv)}\n{err}", file=sys.stderr)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "attempted": attempted,
                "failed": failed,
                "correct": not problems,
                "metrics": metrics,
                "notes": notes,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
