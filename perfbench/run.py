"""gatedfusion benchmark: train, score and pipeline workloads.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # each in its own process
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B    # two sets of result files

Run from anywhere; the program is imported from ``src/`` beside this
directory.  The last line of a workload run is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Every run also writes a result file with the environment,
the named metrics and any failed checks to ``--out``.  See README.md.
"""

from __future__ import annotations

import os

# Single-threaded BLAS (at most nproc), set before numpy loads, for this
# process and the workload processes it starts only.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_BUILDS = 3
MIN_REPS = 3

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Book  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_program():
    """Import gatedfusion from this checkout's ``src``; returns the package
    and the seconds the import took (numpy included)."""
    src = ROOT / "src"
    if not (src / "gatedfusion" / "__init__.py").is_file():
        raise BenchError(f"no gatedfusion sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    gf = importlib.import_module("gatedfusion")
    importlib.import_module("gatedfusion.cli")
    seconds = time.perf_counter() - start
    if Path(gf.__file__).resolve().parent != src / "gatedfusion":
        raise BenchError(f"gatedfusion imported from {gf.__file__}, not {src}")
    return gf, seconds


def _git_commit() -> str:
    """Read from ``.git`` directly; a checkout without it reports unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "commit": _git_commit(), "seed": seed}


def summarize(values: list[float]) -> dict:
    """Median and quartiles, plus the highest percentile with at least ten
    samples beyond it when there are enough samples for one above p50."""
    values = sorted(values)
    n = len(values)
    q = statistics.quantiles(values, n=4) if n > 1 else [values[0]] * 3
    out = {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": n, "tail": None}
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p > 50:
        out["tail"] = {"p": p, "value": statistics.quantiles(values, n=100)[p - 1]}
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload, gf, book: Book, seed: int, builds: int, reps: int,
             workdir: Path) -> tuple:
    """Set-up builds, then repetitions on the last build; returns (seconds
    per build, per-step samples)."""
    workdir.mkdir(parents=True, exist_ok=True)
    build_s = []
    for _ in range(builds):
        start = time.perf_counter()
        state = workload.setup(gf, book, seed, workdir)
        build_s.append(time.perf_counter() - start)
    samples = {"step_a": [], "step_b": []}
    for _ in range(reps):
        for step, seconds in workload.rep(gf, book, state).items():
            samples[step].append(seconds)
    return build_s, samples


def _layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    summary = tracer.summary()
    values = dict(tracer.counts)
    for name, row in summary.items():
        values[f"{name}_s"] = row["self_s"]
        values[f"{name}_calls"] = row["calls"]
    values["training.train_self_s"] = summary.get("training.train", {}).get("self_s", 0.0)
    values["trace.overhead_s"] = overhead_s
    return values


def run_workload(name: str, seed: int, seconds: int, trace: bool, out: Path) -> dict:
    workload = WORKLOADS[name]
    gf, import_s = load_program()
    # A fixed amount of work: --seconds converts to repetitions through the
    # seed code's cost per repetition, never through a clock reading.
    reps = max(MIN_REPS, round(seconds / workload.rep_seconds))
    workdir = ROOT / ".perfbench" / f"work-{name}-{os.getpid()}"
    book = Book()
    try:
        if trace:
            # Untraced repetitions serve only as the base of the tracing
            # overhead here, so a traced run makes the minimum of them.
            builds, samples = _measure(workload, gf, book, seed, 1, MIN_REPS, workdir)
        else:
            builds, samples = _measure(workload, gf, book, seed, SETUP_BUILDS, reps, workdir)
        layers, overhead = None, None
        if trace:
            tracer = Tracer()
            book.tracer = tracer
            with tracer.installed():
                _, traced = _measure(workload, gf, book, seed, 1, reps, workdir)
            plain_rep = statistics.median(map(sum, zip(samples["step_a"], samples["step_b"])))
            traced_rep = statistics.median(map(sum, zip(traced["step_a"], traced["step_b"])))
            overhead = {"untraced_rep_s": plain_rep, "traced_rep_s": traced_rep,
                        "share": traced_rep / plain_rep - 1.0}
            layers = {"spans": tracer.summary(), "counts": dict(tracer.counts),
                      "absent": sorted(tracer.absent),
                      "metrics": _layer_metrics(tracer, traced_rep - plain_rep)}
            out.mkdir(parents=True, exist_ok=True)
            tracer.write(out / f"{name}-seed{seed}-spans.json.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    step_a, step_b = summarize(samples["step_a"]), summarize(samples["step_b"])
    named = {k: {"value": v, "unit": u}
             for k, (v, u) in workload.named(step_a["median"], step_b["median"]).items()}
    e2e = {"setup_s": import_s + statistics.median(builds),
           "step_a_s": step_a["median"], "step_b_s": step_b["median"],
           "peak_rss_mb": _peak_rss_mb()}
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "reps": reps, "env": environment(seed),
            "attempted": book.attempted, "failed": book.failed,
            "error_rate": book.failed / book.attempted, "problems": book.problems(),
            "setup": {"import_s": import_s, "builds_s": builds},
            "steps": {"step_a": step_a, "step_b": step_b}, "named": named,
            "end_to_end": e2e, "trace_overhead": overhead, "layers": layers}


def result_line(result: dict) -> dict:
    """The contract's last line: the metrics BENCHMARK.json names, no others."""
    if result["trace"]:
        spec, values = SPEC["per_layer"], result["layers"]["metrics"]
    else:
        spec, values = SPEC["end_to_end"], result["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_report(result: dict) -> None:
    env = result["env"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"cpus {env['cpu_count']}, threads {env['blas_threads']}, "
          f"commit {env['commit']}, seed {env['seed']}")
    print(f"{result['workload']}: {result['reps']} repetitions of fixed work, "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"error_rate {result['error_rate']:.4f}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, value in result["end_to_end"].items():
        print(f"  {name:24s} {value:12.4f} {units.get(name, '')}")
    for name, step in result["steps"].items():
        tail = (f"p{step['tail']['p']} {step['tail']['value']:.4f} s" if step["tail"]
                else "too few samples for a tail percentile")
        print(f"    {name}: median {step['median']:.4f} s, quartiles {step['q1']:.4f}-"
              f"{step['q3']:.4f} s, n={step['n']}, {tail}")
    for name, m in result["named"].items():
        print(f"  {name:24s} {m['value']:12.4f} {m['unit']}")
    if result["layers"]:
        ov = result["trace_overhead"]
        print(f"  trace overhead: repetition {ov['untraced_rep_s']:.4f} s untraced, "
              f"{ov['traced_rep_s']:.4f} s traced ({100 * ov['share']:+.1f}%)")
        print(f"  {'span':28s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
        for name, row in sorted(result["layers"]["spans"].items()):
            print(f"  {name:28s} {row['calls']:9d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
        for name, value in sorted(result["layers"]["counts"].items()):
            print(f"  {name:28s} {value:>9d} (count{', computed' if name == 'gfa.flops' else ''})")
        for name in result["layers"]["absent"]:
            print(f"  absent: {name}")


def run_one(args) -> int:
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_report(result)
    print(json.dumps(result_line(result)))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    codes = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        print(f"== {name}", flush=True)
        codes[name] = subprocess.run(cmd, check=False).returncode
    print(f"== all: exit codes {codes}")
    return max(codes.values())


def _load_results(directory: Path) -> dict:
    results: dict = {}
    for path in sorted(directory.glob("*-trace[01].json")):
        r = json.loads(path.read_text(encoding="utf-8"))
        values = r["layers"]["metrics"] if r["trace"] else r["end_to_end"]
        for metric, value in values.items():
            results.setdefault((r["workload"], metric), []).append(value)
    return results


def compare(dir_a: Path, dir_b: Path) -> int:
    """Per workload and metric: each side's median and quartiles.  A metric
    whose run-to-run spread (quartile distance over median) exceeds its bound
    is unresolved unless every B run beats every A run."""
    a, b = _load_results(dir_a), _load_results(dir_b)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    print(f"{'workload':9s} {'metric':28s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'change':>8s}  verdict")
    for key in sorted(a.keys() & b.keys()):
        workload, metric = key
        sa, sb = summarize(a[key]), summarize(b[key])
        sign = -1 if better.get(metric, "lower") == "lower" else 1
        change = (sb["median"] / sa["median"] - 1) if sa["median"] else float("nan")
        verdict = ""
        if metric in bounds:
            bound = bounds[metric]
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb))
            if sign < 0:
                dominates = max(b[key]) < min(a[key])
            else:
                dominates = min(b[key]) > max(a[key])
            if spread > bound and not dominates:
                verdict = f"unresolved (spread {spread:.3f} > bound {bound})"
            elif sign * change < -bound:
                verdict = f"WORSE beyond bound {bound}"
            elif sign * change > bound:
                verdict = f"better beyond bound {bound}"
            else:
                verdict = f"within bound {bound}"
        print(f"{workload:9s} {metric:28s} "
              f"{sa['median']:12.5g} [{sa['q1']:9.5g}, {sa['q3']:9.5g}] "
              f"{sb['median']:12.5g} [{sb['q1']:9.5g}, {sb['q3']:9.5g}] "
              f"{100 * change:+7.1f}%  {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "results")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("need --workload or --compare")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
