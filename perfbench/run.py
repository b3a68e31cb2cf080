#!/usr/bin/env python3
"""Benchmark for schubcalc.

One invocation runs one workload in a fresh interpreter, as a closed loop
with one client and no extra threads:

    python3 perfbench/run.py --workload families --seed 1 --seconds 25 --trace 0

`--trace 0` measures the end-to-end metrics; `--trace 1` wraps the layers
and reports the per-layer metrics.  `--workload all` runs every workload,
untraced and traced, each in its own interpreter.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  A fuller
record (environment, sample counts, sizes drawn, scaling rows) goes to
perfbench/results/, and the spans of a traced run next to it.  See README.md.
"""
from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import oracle as O
import workloads as W
from tracer import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

WORKLOADS = ("families", "complexes", "bijections", "cli")
SETUPS = 7
MIN_TASKS = 100          # so that ten tasks lie beyond the 90th percentile
MIN_PASSES = 6           # peak RSS is read after this many passes
HARD_LIMIT_S = 50.0      # no further pass starts after this
STARTUP_REPEATS = 5

# The reference: a fixed computation of the benchmark's own (the oracle's
# Schubert polynomial of [43521]), timed between tasks.  Latencies are scaled
# to a host on which it takes REFERENCE_MS (see README.md, "Host speed").
REFERENCE_P = (1, (4, 3, 5, 2, 1))
REFERENCE_MS = 1.0
REFERENCE_SPAN = 3       # references on each side of a task that set its scale

END_TO_END = {
    "throughput_tasks_per_s": ("tasks/s", "higher"),
    "task_p50_ms": ("ms", "lower"),
    "task_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
PER_LAYER = {f"{layer}.{what}": (unit, "lower") for layer in LAYERS
             for what, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))}
PER_LAYER.update({
    "perms.reduced_words.self_s": ("s", "lower"),
    "perms.reduced_words.words_out": ("count", "lower"),
    "perms.reduced_words.repeat_ratio": ("ratio", "higher"),
    "perms.demazure.calls": ("count", "lower"),
    "perms.compatible_sequences.self_s": ("s", "lower"),
    "shapes.enumerate_tableaux.self_s": ("s", "lower"),
    "shapes.enumerate_tableaux.tableaux_out": ("count", "lower"),
    "shapes.enumerate_set_valued_wct.self_s": ("s", "lower"),
    "pipedreams.reduced_pipe_dreams.self_s": ("s", "lower"),
    "pipedreams.reduced_pipe_dreams.dreams_out": ("count", "lower"),
    "pipedreams.all_pipe_dreams.self_s": ("s", "lower"),
    "pipedreams.all_pipe_dreams.dreams_out": ("count", "lower"),
    "poly.Polynomial.add.calls": ("count", "lower"),
    "poly.Polynomial.add.self_s": ("s", "lower"),
    "poly.terms_out": ("count", "lower"),
    "complexes.classify_ball_or_sphere.self_s": ("s", "lower"),
    "complexes.classify_ball_or_sphere.repeat_ratio": ("ratio", "higher"),
    "complexes.vertex_decomposition.self_s": ("s", "lower"),
    "complexes.reduced_euler_characteristic.self_s": ("s", "lower"),
    "complexes.stanley_reisner_generators.self_s": ("s", "lower"),
    "complexes.facets_out": ("count", "lower"),
    "shuffles.monk_shuffle.self_s": ("s", "lower"),
    "shuffles.monk_unshuffle.self_s": ("s", "lower"),
    "shuffles.pieri_shuffle.self_s": ("s", "lower"),
    "shuffles.pieri_unshuffle.self_s": ("s", "lower"),
    "shuffles.pieri_targets.self_s": ("s", "lower"),
    "cli.interpreter_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.command_ms": ("ms", "lower"),
    "cli.format_first_json_failed": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})


class SetupError(Exception):
    pass


# -- the program ------------------------------------------------------------------


def import_program(tracer: Tracer | None = None) -> SimpleNamespace:
    """Import schubcalc afresh from this checkout, so its caches start empty."""
    for name in [n for n in sys.modules if n == "schubcalc" or n.startswith("schubcalc.")]:
        del sys.modules[name]
    modules = {layer: importlib.import_module(f"schubcalc.{layer}") for layer in LAYERS}
    for module in modules.values():
        if SRC not in Path(module.__file__).resolve().parents:
            raise SetupError(f"{module.__name__} was imported from {module.__file__}, not {SRC}")
    cli_call = functools.partial(W.cli_call, str(SRC), str(ROOT))
    if tracer is not None:
        tracer.install(modules)
        cli_call = tracer.wrap(cli_call, "cli.subprocess")
    return SimpleNamespace(**modules, cli_call=cli_call)


class PassStream:
    """Passes of tasks drawn from one seeded generator, made on demand."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.make = W.PASSES[workload]
        self.sizes = W.SIZES[workload]
        self.passes: list[list[W.Task]] = []

    def get(self, k: int) -> list[W.Task]:
        while len(self.passes) <= k:
            self.passes.append(self.make(self.rng, self.sizes))
            O.clear_caches()
        return self.passes[k]


def reference_s() -> float:
    """Wall time of the reference computation, from empty caches."""
    O.clear_caches()
    start = time.perf_counter()
    O.schubert_from_words(REFERENCE_P)
    seconds = time.perf_counter() - start
    O.clear_caches()
    return seconds


def scaled(raw: list[float], refs: list[float]) -> list[float]:
    """Each time of `raw` at the reference speed.  refs[k] was timed just
    before raw[k] and refs[k + 1] just after it; the median of the
    REFERENCE_SPAN references on each side is the host's speed at that time.
    """
    out = []
    for k, seconds in enumerate(raw):
        near = refs[max(0, k + 1 - REFERENCE_SPAN):k + 1 + REFERENCE_SPAN]
        out.append(seconds * REFERENCE_MS * 1e-3 / statistics.median(near))
    return out


def setup(stream: PassStream) -> tuple[float, SimpleNamespace]:
    """A fresh package import plus generating the stream's next pass of
    inputs, timed and scaled to the reference speed.  Passes not made in
    set-up are generated between tasks, outside the timed spans.
    """
    before = [reference_s() for _ in range(REFERENCE_SPAN)]
    start = time.perf_counter()
    m = import_program()
    stream.get(len(stream.passes))
    seconds = time.perf_counter() - start
    after = [reference_s() for _ in range(REFERENCE_SPAN)]
    return seconds * REFERENCE_MS * 1e-3 / statistics.median(before + after), m


# -- the loop -------------------------------------------------------------------


def measure(m, stream: PassStream, seconds: float, tracer: Tracer | None = None,
            passes: int | None = None, rss=None) -> dict:
    """Run whole passes until `seconds` of wall time, MIN_TASKS tasks and
    MIN_PASSES passes, or exactly `passes` passes.  Only the program calls
    are timed; each answer is checked after its timer stops, and the
    reference is timed after each task.  `rss()` is read once MIN_PASSES
    passes are done.
    """
    raw, kinds, failures, drawn = [], [], [], []
    peak_rss = None
    gc.collect()
    refs = [reference_s()]
    start = time.perf_counter()
    k = 0
    while passes is None or k < passes:
        for task in stream.get(k):
            if tracer is not None:
                tracer.task = len(raw)
                tracer.enabled = True
            error = None
            t0 = time.perf_counter()
            try:
                result = W.RUN[task.kind](m, *task.args)
            except Exception as exc:  # a failed task is counted, not fatal
                error = exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.enabled = False
            if error is None:
                try:
                    W.CHECK[task.kind](result, *task.args)
                except Exception as exc:
                    error = exc
            result = None
            refs.append(reference_s())
            raw.append(t1 - t0)
            kinds.append(task.kind)
            drawn.append(task.size)
            if error is not None:
                failures.append(f"{task.kind}{task.args!r:.120}: {type(error).__name__}: {error}")
        k += 1
        if k == MIN_PASSES and rss is not None:
            peak_rss = rss()
        wall = time.perf_counter() - start
        if passes is None and ((wall >= seconds and len(raw) >= MIN_TASKS
                                and k >= MIN_PASSES) or wall >= HARD_LIMIT_S):
            break
    if rss is not None and peak_rss is None:  # stopped by HARD_LIMIT_S first
        peak_rss = rss()
    return {"latencies": scaled(raw, refs), "raw": raw, "kinds": kinds,
            "failures": failures, "drawn": drawn, "peak_rss_mb": peak_rss, "passes": k,
            "reference_ms": statistics.median(refs) * 1e3,
            "wall_s": time.perf_counter() - start}


def startup_ms() -> tuple[float, float]:
    """Bare interpreter start-up, and importing schubcalc.cli on top of it."""
    env = W.cli_env(str(SRC))

    def wall(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       capture_output=True, timeout=120)
        return time.perf_counter() - t0

    bare, loaded = [], []
    for _ in range(STARTUP_REPEATS):
        bare.append(wall("pass"))
        loaded.append(wall("import schubcalc.cli"))
    interpreter = statistics.median(bare) * 1e3
    return interpreter, statistics.median(loaded) * 1e3 - interpreter


def format_first_probes() -> list[str]:
    """`--format json` before the subcommand, outside the timed mix."""
    failures = []
    for index in W.FORMAT_FIRST_PROBES:
        argv = ("--format", "json") + W.CLI_CASES[index][0]
        try:
            W.check_cli(W.cli_call(str(SRC), str(ROOT), argv), index, argv, "json")
        except Exception as exc:
            failures.append(f"{' '.join(argv)}: {exc}")
    return failures


# -- reporting ------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def size_ranges(loop: dict) -> dict:
    out: dict = {}
    for kind, size in zip(loop["kinds"], loop["drawn"]):
        row = out.setdefault(kind, {"tasks": 0})
        row["tasks"] += 1
        for key, value in size.items():
            if isinstance(value, (int, float)):
                lo, hi = row.get(key, (value, value))
                row[key] = (min(lo, value), max(hi, value))
            else:
                row.setdefault(key, set()).add(value)
    return {kind: {k: sorted(v) if isinstance(v, set) else v for k, v in row.items()}
            for kind, row in out.items()}


def latency_by_kind(loop: dict) -> dict:
    by_kind: dict = {}
    for kind, seconds in zip(loop["kinds"], loop["latencies"]):
        by_kind.setdefault(kind, []).append(seconds)
    return {kind: {"tasks": len(v), "median_ms": statistics.median(v) * 1e3}
            for kind, v in sorted(by_kind.items())}


def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "implementation": platform.python_implementation(), "commit": commit(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


def write_result(name: str, record: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    return path


def emit(metrics: dict, table: dict, attempted: int, failed: int, samples: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {table[name][0]:<8} ({samples.get(name, '')})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": table[name][0]}
                                  for name, value in metrics.items()}}))


# -- the two kinds of run ---------------------------------------------------------


def untraced_run(args) -> None:
    """SETUPS set-ups, each a fresh import that draws the next pass, so that
    their median does not rest on one pass; then one timed loop on the last.
    """
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    stream = PassStream(args.workload, args.seed)
    setups = []
    for _ in range(SETUPS):
        seconds, m = setup(stream)
        setups.append(seconds)
    loop = measure(m, stream, args.seconds,
                   rss=lambda: resource.getrusage(who).ru_maxrss / 1024)
    lat = loop["latencies"]
    interpreter_ms, import_ms = startup_ms()
    probes = format_first_probes() if args.workload == "cli" else []
    metrics = {
        "throughput_tasks_per_s": len(lat) / sum(lat),
        "task_p50_ms": statistics.median(lat) * 1e3,
        "task_p90_ms": percentile(lat, 90) * 1e3,
        "peak_rss_mb": loop["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    attempted = len(lat)
    failures = loop["failures"]
    failed = len(failures)
    samples = {name: f"n={len(lat)} tasks" for name in metrics}
    samples["setup_s"] = f"median of {len(setups)} set-ups"
    samples["peak_rss_mb"] = (f"{'largest child' if args.workload == 'cli' else 'this process'}"
                              f", after {MIN_PASSES} passes")
    record = dict(environment(args), metrics=metrics, attempted=attempted, failed=failed,
                  failed_ratio=failed / attempted, failures=failures[:50],
                  passes=loop["passes"], busy_s=sum(lat), raw_busy_s=sum(loop["raw"]),
                  wall_s=loop["wall_s"], reference_ms=loop["reference_ms"], setups_s=setups,
                  sizes=size_ranges(loop), latency_by_kind=latency_by_kind(loop),
                  cli_interpreter_ms=interpreter_ms, cli_import_ms=import_ms,
                  format_first_json_failed=probes)
    path = write_result(f"{args.workload}-seed{args.seed}-trace0.json", record)
    print(f"{args.workload}: {loop['passes']} passes, reference {loop['reference_ms']:.4g} ms, "
          f"{failed} of {attempted} failed (failed_ratio {failed / attempted:.4g} ratio), "
          f"result in {os.path.relpath(path, ROOT)}")
    if probes:
        print(f"  --format json before the subcommand: {len(probes)} of "
              f"{len(W.FORMAT_FIRST_PROBES)} probe commands failed")
    for line in failures[:5]:
        print(f"  FAILED {line}")
    emit(metrics, END_TO_END, attempted, failed, samples)


def traced_run(args) -> None:
    stream = PassStream(args.workload, args.seed)
    _, m = setup(stream)
    plain = measure(m, stream, args.seconds / 2)
    interpreter_ms, import_ms = startup_ms()
    tracer = Tracer()
    traced = measure(import_program(tracer), stream, 0, tracer=tracer, passes=plain["passes"])
    probes = format_first_probes() if args.workload == "cli" else []
    rows = tracer.metrics()
    command_ms = 0.0
    if args.workload == "cli":
        command_ms = statistics.median(plain["raw"]) * 1e3 - interpreter_ms - import_ms
    rows.update({"cli.interpreter_ms": interpreter_ms, "cli.import_ms": import_ms,
                 "cli.command_ms": command_ms, "cli.format_first_json_failed": len(probes),
                 "trace.overhead_ratio": sum(traced["latencies"]) / sum(plain["latencies"])})
    metrics = {name: float(rows.get(name, 0)) for name in PER_LAYER}
    attempted = len(plain["latencies"]) + len(traced["latencies"])
    failed = len(plain["failures"]) + len(traced["failures"])
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
    span_count = tracer.write_spans(spans_path)
    scaling = tracer.scaling_rows()
    record = dict(environment(args), metrics=metrics, all_rows=rows, attempted=attempted,
                  failed=failed, failures=(plain["failures"] + traced["failures"])[:50],
                  passes=plain["passes"], untraced_busy_s=sum(plain["latencies"]),
                  traced_busy_s=sum(traced["latencies"]), spans=span_count,
                  spans_file=spans_path.name, sizes=size_ranges(traced),
                  latency_by_kind=latency_by_kind(traced), scaling=scaling,
                  format_first_json_failed=probes)
    path = write_result(f"{args.workload}-seed{args.seed}-trace1.json", record)
    print(f"{args.workload} traced: {plain['passes']} passes twice, {attempted} tasks, "
          f"{failed} failed, {span_count} spans, result in {os.path.relpath(path, ROOT)}")
    for row in scaling:
        points = ", ".join(f"{p['size']}: {p['median_s'] * 1e3:.3g} ms (n={p['calls']})"
                           for p in row["points"])
        print(f"  scaling {row['name']} by {row['axis']}: {points or 'not called'}; "
              f"median reaches 1 s at {row['first_size_over_1s'] or 'no size drawn'}")
    samples = {name: f"n={len(traced['latencies'])} traced tasks" for name in metrics}
    samples.update({"cli.interpreter_ms": f"median of {STARTUP_REPEATS}",
                    "cli.import_ms": f"median of {STARTUP_REPEATS}",
                    "cli.command_ms": f"n={len(plain['latencies'])} untraced tasks",
                    "cli.format_first_json_failed": f"of {len(W.FORMAT_FIRST_PROBES)} probes"})
    emit(metrics, PER_LAYER, attempted, failed, samples)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"== {workload} trace={trace}", flush=True)
            status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "schubcalc" / "__init__.py").is_file():
        print(f"error: no schubcalc sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        (traced_run if args.trace else untraced_run)(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
