"""Seeded, self-checking benchmark for opoly.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, items run one after another):

  roundtrip-high-order  moments_from_jacobi -> smop_from_moments at orders
                        32-128, plus inverse_recurrence at orders <= 64.
  verify-catalogue      every `opoly verify` identity through cli.main, in
                        process, on classical and random functionals.
  cli-pipeline          fresh `python -m opoly` processes: example, moments |
                        smop, moments | transform | smop, moments | factorize.
                        Run by hand: BENCHMARK.json lists only the first
                        two, so that its runs can last 50 s each.

Inputs come from --seed only; each item's output is checked against an
oracle in perfbench/oracle.py or a closed form in opoly/families.py.

With --trace 0 the run measures for at least --seconds, in whole rounds
and at least the workload's minimum number of them.  Every round has the
same slots (kind and size) with freshly drawn values, and a slot's
latency is its fastest round: on a shared host the other rounds mostly
add time that other load took from this process.  Over those per-slot
latencies it reports

  items_per_s   slots / sum of their latencies (one closed-loop client)
  item_p50_ms   median slot latency
  setup_s       time to import opoly and generate the first round: the
                median, over four groups of five fresh processes, of each
                group's fastest
  peak_rss_mib  peak resident memory (of the child processes for
                cli-pipeline)

and, in the text report only, the raw figures over every item: wall
throughput, median and item_tail_ms, the latency at the highest
percentile with ten items beyond it.

With --trace 1 it runs a fixed set of items, each once untraced and once
with span wrappers installed, and reports per-layer calls and self time.
The last line of stdout is one JSON object; the full result, with the
environment and the output digest, goes to
.perfbench/result-<workload>-seed<N>-trace<T>.json and traced spans to
.perfbench/spans-<workload>-seed<N>.jsonl.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("roundtrip-high-order", "verify-catalogue", "cli-pipeline")
SETUP_SAMPLES = 20
SETUP_GROUP = 5
STARTUP_SAMPLES = 5
CHILD_TIMEOUT = 170

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # internal: time one set-up in a fresh process and print it
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup(args, work_dir):
    """Import opoly and generate the first round; returns (seconds, workload, items)."""
    start = clock()
    opoly = importlib.import_module("opoly")
    if Path(opoly.__file__).resolve().parent != SRC / "opoly":
        raise SystemExit("perfbench: imported opoly from %s, not %s" % (opoly.__file__, SRC))
    import workloads

    workload = workloads.make(args.workload, args.seed, str(ROOT), work_dir)
    first = workload.round_items(0)
    return clock() - start, workload, first


def probe(args):
    """One set-up sample from a fresh process; returns its stdout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=child_env(),
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("child run failed:\n" + proc.stderr)
    return proc.stdout


def startup_ms():
    """Median wall time of a fresh `python -c "import opoly.cli"`."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        start = clock()
        subprocess.run([sys.executable, "-c", "import opoly.cli"], check=True, cwd=ROOT,
                       env=child_env(), timeout=CHILD_TIMEOUT)
        samples.append((clock() - start) * 1000.0)
    return statistics.median(samples)


def environment():
    from opoly import rational

    return {
        "python": platform.python_version(),
        "backend": rational.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "OPOLY_MAX_ORDER": os.environ.get("OPOLY_MAX_ORDER", "64 (default)"),
    }


def run_items(workload, items):
    """Run items in order; returns (latencies, statuses, failures, digest of outputs)."""
    import workloads

    latencies, statuses, failures = [], [], []
    digest = hashlib.sha256()
    for item in items:
        seconds, status, text = workloads.run_item(workload, item, clock)
        latencies.append(seconds)
        statuses.append(status)
        if status == workloads.FAILED:
            failures.append({"item": item.ident, "output": text[-2000:]})
        digest.update(("%s\n%s\n" % (item.ident, text)).encode())
    return latencies, statuses, failures, digest.hexdigest()


def tail(samples):
    """(value, percentile) at the highest percentile with ten samples beyond it.

    With n sorted samples that is the (n - 10)-th smallest, at percentile
    100 * (n - 10) / n; it needs at least eleven samples.
    """
    n = len(samples)
    if n < 11:
        raise ValueError("a tail with ten samples beyond it needs 11 samples, got %d" % n)
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def setup_seconds(samples):
    """Median over consecutive groups of SETUP_GROUP set-ups of each group's fastest."""
    return statistics.median(
        min(samples[i:i + SETUP_GROUP]) for i in range(0, len(samples), SETUP_GROUP)
    )


def slot_bests(by_round):
    """Each slot's fastest latency over the rounds (one list per round, in slot order)."""
    return [min(column) for column in zip(*by_round)]


def timed_loop(workload, first, seconds):
    """Whole rounds until both --seconds and the workload's minimum are reached.

    Returns (latencies per round, statuses, failures, digest of the first
    round's outputs, wall seconds)."""
    by_round, statuses, failures = [], [], []
    digest = None
    start = clock()
    while len(by_round) < workload.min_rounds or clock() - start < seconds:
        items = first if not by_round else workload.round_items(len(by_round))
        lat, st, fail, dig = run_items(workload, items)
        by_round.append(lat)
        statuses += st
        failures += fail
        digest = digest or dig
    return by_round, statuses, failures, digest, clock() - start


def traced_run(workload, items, spans_path):
    """Each item untraced and traced, back to back, alternating which goes
    first so neither side always runs warm.  Returns (untraced latencies,
    traced latencies, statuses, failures, per-layer metrics)."""
    import spans
    import workloads

    recorder = spans.Recorder()
    plain, traced, statuses, failures = [], [], [], []
    for index, item in enumerate(items):
        for with_spans in ((False, True) if index % 2 == 0 else (True, False)):
            if with_spans:
                recorder.item = item.ident
                undo = spans.install(recorder)
                try:
                    seconds, status, text = workloads.run_item(workload, item, clock, traced=True)
                finally:
                    spans.uninstall(undo)
                traced.append(seconds)
            else:
                seconds, status, text = workloads.run_item(workload, item, clock)
                plain.append(seconds)
            statuses.append(status)
            if status == workloads.FAILED:
                failures.append({"item": item.ident, "output": text[-2000:]})
    recorder.write_jsonl(spans_path)
    records = spans.read_jsonl([spans_path] + getattr(workload, "spans_files", []))
    with open(spans_path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return plain, traced, statuses, failures, spans.layer_metrics(records)


def measure(args, work_dir):
    """Set up, run, and return the full result record."""
    own_setup, workload, first = setup(args, work_dir)  # first: it times the opoly import
    import spans
    import workloads

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment()}
    if args.trace == 0:
        setups = [own_setup] + [
            float(probe(args).split()[-1]) for _ in range(SETUP_SAMPLES - 1)
        ]
        by_round, statuses, failures, digest, wall = timed_loop(workload, first, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-pipeline" else resource.RUSAGE_SELF
        best = slot_bests(by_round)
        n = len(best)
        metrics = {
            "items_per_s": (n / sum(best), "1/s", n),
            "item_p50_ms": (statistics.median(best) * 1000.0, "ms", n),
            "setup_s": (setup_seconds(setups), "s", len(setups)),
            "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB", 1),
        }
        latencies = [x for lat in by_round for x in lat]
        tail_s, tail_pct = tail(latencies)
        raw = {
            "items_per_s": (len(latencies) / sum(latencies), "1/s", len(latencies)),
            "item_p50_ms": (statistics.median(latencies) * 1000.0, "ms", len(latencies)),
            "item_tail_ms": (tail_s * 1000.0, "ms", len(latencies)),
        }
        result.update({"rounds": len(by_round), "wall_s": wall, "tail_percentile": tail_pct,
                       "digest": digest, "setup_samples": setups, "latencies_s": by_round,
                       "raw": {k: {"value": v, "unit": u, "samples": c}
                               for k, (v, u, c) in raw.items()}})
    else:
        items = first + [
            item for r in range(1, workload.trace_rounds) for item in workload.round_items(r)
        ]
        spans_path = OUT_DIR / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        plain, traced, statuses, failures, layers = traced_run(workload, items, spans_path)
        layers["cli.startup_ms"] = startup_ms()
        layers["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
        metrics = {
            name: (layers[name], unit, STARTUP_SAMPLES if name == "cli.startup_ms" else len(items))
            for name, unit in spans.metric_units()
        }
        result["spans"] = str(spans_path)
    failed = statuses.count(workloads.FAILED)
    result.update({
        "attempted": len(statuses),
        "failed": failed,
        "expected_errors": statuses.count(workloads.EXPECTED),
        "failed_frac": failed / len(statuses),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
    })
    return result


def report(result):
    """Human-readable lines; the JSON summary is printed after them."""
    env = result["environment"]
    print("workload %s  seed %d  trace %d" % (result["workload"], result["seed"], result["trace"]))
    print("environment: " + ", ".join("%s %s" % kv for kv in env.items()))
    if "raw" in result:
        print("  per slot, fastest of %d rounds:" % result["rounds"])
    for name, m in result["metrics"].items():
        print("  %-46s %14.6g %-6s n=%d" % (name, m["value"], m["unit"], m["samples"]))
    if "raw" in result:
        print("  over every item (wall clock, not gated):")
        for name, m in result["raw"].items():
            extra = ""
            if name == "item_tail_ms":
                extra = " at p%.1f (10 samples beyond)" % result["tail_percentile"]
            print("  %-46s %14.6g %-6s n=%d%s" % (name, m["value"], m["unit"], m["samples"], extra))
    print("  %-46s %14.6g %-6s n=%d (%d failed, %d expected typed errors)" % (
        "failed_frac", result["failed_frac"], "frac", result["attempted"],
        result["failed"], result["expected_errors"]))
    if "rounds" in result:
        print("  %d rounds in %.2f s" % (result["rounds"], result["wall_s"]))
    if "digest" in result:
        print("  digest sha256:%s (first round's outputs)" % result["digest"])
    for failure in result["failures"][:10]:
        print("  FAILED %s: %s" % (failure["item"], failure["output"][:300].replace("\n", " ")))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "opoly" / "__init__.py").is_file():
        print("perfbench: no opoly sources at %s" % SRC, file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work_dir.mkdir()
    try:
        if args.setup_probe:
            print(repr(setup(args, work_dir)[0]))
            return 0
        result = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(OUT_DIR / name, "w") as handle:
        json.dump(result, handle, indent=1)
    report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
