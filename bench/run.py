"""Benchmark runner for charlie: four fixed workloads through `cli.run`.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every timed execution is a fresh `bench/worker.py` process, started one at a
time (closed loop, one client, no threads), because charlie is used as a
command: each invocation starts cold and its memo caches (Bell polynomials,
sl(3) constants, monomial products) die with it, so repeating a command inside
one process would time cache hits no user sees.

Untraced (`--trace 0`) a run first measures set-up.  `setup_s` is the median
over several fresh interpreters of the time to import charlie and parse the
workload's inputs.  The run then repeats the workload until `--seconds` is used
up, at least three times.  It reports the median seconds from the call to the
finished report bytes (`report_s`) and the median `ru_maxrss` of the processes
(`peak_rss_mib`).  Both times are corrected to reference interpreter speed by
the worker's SpeedProbe.  The raw wall times are printed next to them as
`report_wall_s` and `setup_wall_s`.  Every report's sha256 is checked against
`bench/golden.json`.  A different hash, exit code or status counts as failed.

Traced (`--trace 1`) a run alternates untraced and traced executions (spans and
counters from `bench/tracer.py`) plus one tracemalloc execution, and reports
the per-layer metrics.  Exact counts must repeat between traced executions.
Spans are written to `bench/out/`.  The last line of standard output is the
JSON result object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shlex
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")
OUT_DIR = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

RUN_LIMIT_S = 170     # every run ends within this, whatever --seconds asks for
MIN_SAMPLES = 3       # untraced executions per run, so a median exists
SETUP_REPEATS = 7     # fresh interpreters timed per run for setup_s

# Fixed problem sizes; the seed never changes them, so closure sizes never vary.
FIXED = {
    "closure-sinh-d16": ("charalg", "--equation", "sinh", "--degree", "16", "--order", "20"),
    "closure-nonint-d10": ("charalg", "--equation", "e^u + e^(-3u)", "--degree", "10",
                           "--order", "14"),
    "iso-tzitzeica-d14": ("verify-iso", "--equation", "tzitzeica", "--degree", "14",
                          "--order", "18"),
}

# The oracle sweep: one entry per command, each a tuple of spellings that parse
# to the same values.  The seed picks a spelling and permutes the order.
SWEEP = (
    (("bell", "--complete", "30"),),
    (("jacobi", "--algebra", "W+", "--degree", "40"),),
    (("jacobi", "--algebra", "n2^3", "--degree", "30"),),
    tuple(("integrals", "--equation", eq, "--weight", "12")
          for eq in ("liouville", "e^u", "2/2 e^u", "1*e^(1*u)")),
    (("loops", "--algebra", "sl3t", "--table", "--max", "60"),),
    tuple(("exp2d", "--matrix", m)
          for m in ("2,-4,-1,2", "4/2,-8/2,-1,2", "2,-12/3,-3/3,2", "6/3,-4,-1,10/5")),
    tuple(("symmetry", "--equation", "sinh", "--phi", phi)
          for phi in ("u3 - 1/2*u1^3", "u3 - 2/4*u1^3", "1*u3 - 1/2*u1^3", "u3 - 3/6*u1^3")),
)

WORKLOADS = (*FIXED, "oracle-sweep")
ISO_WORKLOADS = ("iso-tzitzeica-d14",)

# per-layer metric -> tracer total it reads, where the names differ
LAYER_SOURCE = {
    "loopalg.serre_check.jet_busy_s": "loopalg.serre_check.jet.busy_s",
    "loopalg.serre_check.matrix_busy_s": "loopalg.serre_check.matrix.busy_s",
}


class BenchError(RuntimeError):
    pass


def commands(workload: str, seed: int) -> list:
    """The argv lists one execution of the workload runs, in order."""
    if workload in FIXED:
        return [list(FIXED[workload])]
    rng = random.Random(seed)
    chosen = [list(rng.choice(spellings)) for spellings in SWEEP]
    rng.shuffle(chosen)
    return chosen


def all_commands(workload: str) -> list:
    """Every argv any seed can produce for the workload (for golden hashes)."""
    if workload in FIXED:
        return [list(FIXED[workload])]
    return [list(argv) for spellings in SWEEP for argv in spellings]


def spawn(args: list, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"run limit of {RUN_LIMIT_S} s reached")
    try:
        return subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"run limit of {RUN_LIMIT_S} s reached in {args[0]}") from e


def execute(mode: str, argv: list, deadline: float) -> dict:
    """One worker process running one command; {"argv", "error"} when it crashed."""
    proc = spawn([mode, json.dumps(argv)], deadline)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"argv": argv, "error": proc.stderr.strip()[-2000:]}
    return {**json.loads(lines[-1]), "argv": argv}


def problem(workload: str, result: dict, golden: dict) -> str | None:
    """Why an execution counts as failed, or None: crash, exit code, golden hash,
    and for verify-iso anything but `verified` with zero mismatches."""
    if "error" in result:
        return f"crashed: {result['error']}"
    if result["exit"] != 0:
        return f"exit code {result['exit']}: {result['stderr'].strip()}"
    want = golden.get(workload, {}).get(shlex.join(result["argv"]))
    if result["sha256"] != want:
        return f"report sha256 {result['sha256']} is not the golden {want}"
    if workload in ISO_WORKLOADS and (result.get("status"), result.get("mismatches")) != ("verified", 0):
        return f"status {result.get('status')} with {result.get('mismatches')} mismatches"
    return None


def measure_setup(argvs: list, deadline: float) -> dict:
    """setup_s and setup_wall_s of fresh interpreters importing charlie and parsing argvs.

    One untimed start first compiles the bytecode cache, which a user pays once.
    """
    times: dict = {"setup_s": [], "setup_wall_s": []}
    for i in range(SETUP_REPEATS + 1):
        proc = spawn(["setup", json.dumps(argvs)], deadline)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        if i:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for key, values in times.items():
                values.append(result[key])
    return times


def summary(values: list) -> dict:
    """Median, quartiles, count, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else (ordered[0],) * 3
    out = {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": n}
    if n >= 11:  # the value at sorted index n-11 has exactly ten samples above it
        out["tail"] = (100 * (n - 10) / n, ordered[n - 11])
    return out


def summary_text(name: str, unit: str, s: dict) -> str:
    tail = (f"p{s['tail'][0]:.1f} {s['tail'][1]:.6g} {unit}" if "tail" in s
            else "no percentile has ten samples beyond it")
    return (f"  {name:<13} median {s['median']:.6g} {unit}   q1 {s['q1']:.6g}  "
            f"q3 {s['q3']:.6g}   n={s['n']}   {tail}")


class Run:
    """One workload run: executions, checks, and the metrics they give."""

    def __init__(self, workload: str, seed: int, seconds: float, golden: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.golden = golden
        self.argvs = commands(workload, seed)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.samples: dict = {"run": [], "trace": [], "alloc": []}
        self.took: dict = {"run": [], "trace": [], "alloc": []}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def sample(self, mode: str) -> list:
        """Run every command of the workload once in `mode`; returns the results."""
        start = time.monotonic()
        results = []
        for argv in self.argvs:
            result = execute(mode, argv, self.deadline)
            self.attempted += 1
            why = problem(self.workload, result, self.golden)
            if why:
                self.failed += 1
                self.errors.append(f"{mode} {shlex.join(argv)}: {why}")
            results.append(result)
        self.samples[mode].append(results)
        self.took[mode].append(time.monotonic() - start)
        return results

    def fits(self, mode: str, t0: float) -> bool:
        """Whether another execution in `mode`, as long as the median one so far,
        ends within --seconds of t0 (and well inside the run limit)."""
        now = time.monotonic()
        guess = statistics.median(self.took[mode]) if self.took[mode] else 0.0
        return now - t0 + guess <= self.seconds and now + 2 * guess < self.deadline

    def report_times(self, mode: str, key: str = "report_s") -> list:
        """Per execution of the workload, the sum of `key` over its commands."""
        return [sum(r[key] for r in results) for results in self.samples[mode]
                if all(key in r for r in results)]

    # -- untraced -----------------------------------------------------------

    def measure(self) -> dict:
        setup = measure_setup(self.argvs, self.deadline)
        t0 = time.monotonic()
        while len(self.samples["run"]) < MIN_SAMPLES or self.fits("run", t0):
            self.sample("run")
        if not self.report_times("run"):
            raise BenchError("no execution produced a report: " + "; ".join(self.errors))
        rss = [max(r.get("rss_kib", 0) for r in results) / 1024 for results in self.samples["run"]]
        stats = {"report_s": summary(self.report_times("run")),
                 "report_wall_s": summary(self.report_times("run", "report_wall_s")),
                 "setup_s": summary(setup["setup_s"]),
                 "setup_wall_s": summary(setup["setup_wall_s"]),
                 "peak_rss_mib": summary(rss)}
        for name, s in stats.items():
            print(summary_text(name, "MiB" if name == "peak_rss_mib" else "s", s))
        return {name: s["median"] for name, s in stats.items()}

    # -- traced -------------------------------------------------------------

    def measure_traced(self) -> dict:
        t0 = time.monotonic()
        self.sample("run")
        first = self.sample("trace")
        if any("closure.generate.busy_s" in r.get("layers", {}) for r in first):
            self.sample("alloc")
        self.sample("trace")
        mode = "run"
        while self.fits(mode, t0):
            self.sample(mode)
            mode = "trace" if mode == "run" else "run"
        totals = [combine(results) for results in self.samples["trace"]]
        counts = [{k: v for k, v in t.items() if isinstance(v, int)} for t in totals]
        for later in counts[1:]:
            if later != counts[0]:
                diff = sorted(k for k in set(later) | set(counts[0])
                              if later.get(k) != counts[0].get(k))
                self.errors.append(f"exact counts differ between traced executions: {diff}")
        values = dict(counts[0])
        for key in {k for t in totals for k, v in t.items() if isinstance(v, float)}:
            values[key] = statistics.median(t.get(key, 0.0) for t in totals)
        values["exactring.mono_diff.hit_ratio"] = ratio(values, "exactring.mono_diff.hits",
                                                        "exactring.mono_diff.calls")
        values["closure.new_element_ratio"] = ratio(values, "closure.new_elements",
                                                    "closure.brackets_computed")
        values["closure.generate.peak_alloc_mib"] = max(
            (r.get("peak_alloc_mib", 0.0) for results in self.samples["alloc"] for r in results),
            default=0.0)
        traced, untraced = self.report_times("trace"), self.report_times("run")
        values["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)
                                      if traced and untraced else 0.0)
        self.write_spans()
        return values

    def write_spans(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{self.workload}-seed{self.seed}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for s, results in enumerate(self.samples["trace"]):
                for c, result in enumerate(results):
                    trace_id = f"{self.workload}/{self.seed}/{s}/{c}"
                    for span in result.get("spans", ()):
                        if span["parent"] < 0:  # the cli.run root span carries the command
                            span = {**span, "argv": result["argv"]}
                        fh.write(json.dumps({"trace": trace_id, **span}) + "\n")
        print(f"  spans written to {os.path.relpath(path, ROOT)}")


def combine(results: list) -> dict:
    """Per-layer totals of one execution of the workload, summed over its commands."""
    out: dict = {}
    for result in results:
        for key, value in result.get("layers", {}).items():
            if key == "linalg.span_rank":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def ratio(values: dict, num: str, den: str) -> float:
    return values.get(num, 0) / values[den] if values.get(den) else 0.0


def load_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {what} {path}: {e}") from e


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
                 golden: dict) -> dict:
    run = Run(workload, seed, seconds, golden)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"commands: {'; '.join(shlex.join(a) for a in run.argvs)}")
    values = run.measure_traced() if trace else run.measure()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        source = LAYER_SOURCE.get(m["name"], m["name"])
        value = values.get(source, 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if trace:
            print(f"  {m['name']:<42} {value:.6g} {m['unit']}")
    frac = run.failed / run.attempted
    print(f"  failed_frac   {run.failed}/{run.attempted} = {frac:.6g}")
    for err in run.errors:
        print(f"  FAILED: {err}", file=sys.stderr)
    return {"correct": not run.errors, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="charlie benchmark")
    p.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "charlie", "__init__.py")):
            raise BenchError(f"no charlie sources under {os.path.join(ROOT, 'src')}")
        spec = load_json(SPEC, "benchmark spec")
        golden = load_json(GOLDEN, "golden hashes")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, seconds, bool(args.trace), spec, golden)
                   for w in names}
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
