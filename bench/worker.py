"""One benchmark process: a cold start, or one `charlie` command through cli.run.

    python3 bench/worker.py setup '<json list of argv lists>'
    python3 bench/worker.py run|trace|alloc '<json argv>'

`setup` times importing charlie and parsing the inputs.  The other modes run
one command with the report captured in memory.  Both print one JSON line.  The
run modes give the exit code, the seconds from the call to the finished report
bytes, the bytes' sha256 and ru_maxrss.  `trace` mode adds the per-layer totals
(span seconds at reference speed) and the raw spans.  `alloc` mode adds the
tracemalloc peak inside closure.generate.

Every time is given at reference speed (`*_s`, next to the raw `*_wall_s`).
The benchmark host is a shared VM whose vCPUs switch, for seconds at a time,
between two speeds about 1.65x apart, so the same call takes different wall
time from one minute to the next.  A SpeedProbe times a fixed
interpreter-bound kernel before, during (every 50 ms, from SIGALRM) and after
the timed region.  The wall time is scaled by the kernel's mean speed relative
to PROBE_REF_S.  The time spent inside the probes is subtracted first.
"""

import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_cli():
    if not os.path.isfile(os.path.join(SRC, "charlie", "__init__.py")):
        sys.exit(f"worker: no charlie sources under {SRC}")
    sys.path.insert(0, SRC)
    from charlie import cli
    return cli


PROBE_LOOPS = 6000      # kernel size: about 1 ms on an uncontended 2.1 GHz Xeon vCPU
PROBE_REF_S = 0.001     # kernel duration that defines reference speed
PROBE_EVERY_S = 0.05


def probe_kernel() -> None:
    """Fixed interpreter-bound work (dict and int operations), no imports needed."""
    acc: dict = {}
    for i in range(PROBE_LOOPS):
        key = i * 7919 % 257
        acc[key] = acc.get(key, 0) + i * i


class SpeedProbe:
    """Interpreter speed relative to reference, sampled around and during a call."""

    def __init__(self) -> None:
        self.samples: list = []   # (start, duration) of each kernel run

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        probe_kernel()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the probe itself ran inside [t0, t1]."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def speed(self) -> float:
        return sum(PROBE_REF_S / d for _, d in self.samples) / len(self.samples)


def setup(argvs) -> dict:
    probe = SpeedProbe()
    probe.sample()
    probe.sample()
    start = time.perf_counter()
    cli = _import_cli()
    parser = cli.build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        if getattr(args, "equation", None):
            cli.parse_equation(args.equation)
    wall = time.perf_counter() - start
    probe.sample()
    probe.sample()
    return {"setup_wall_s": wall, "setup_s": wall * probe.speed()}


def run(mode: str, argv) -> dict:
    import contextlib
    import io
    import resource

    cli = _import_cli()
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
    elif mode == "alloc":
        from tracer import AllocTracer
        tracer = AllocTracer()
    if tracer is not None:
        tracer.install()
    probe = SpeedProbe() if mode != "alloc" else None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if probe:
            probe.start()
        start = time.perf_counter()
        code = cli.run(argv)
        end = time.perf_counter()
        if probe:
            probe.stop()
    # read before hashlib loads OpenSSL, which would raise the high-water mark
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import hashlib
    import json
    data = out.getvalue().encode("utf-8")
    wall = end - start - (probe.spent(start, end) if probe else 0.0)
    result = {
        "exit": code,
        "report_wall_s": wall,
        "report_s": wall * probe.speed() if probe else wall,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "rss_kib": rss_kib,
        "stderr": err.getvalue()[-500:],
    }
    try:
        report = json.loads(data)
    except ValueError:
        report = None
    if isinstance(report, dict):
        result["status"] = report.get("status")
        payload = report.get("payload") or {}
        if "mismatches" in payload:
            result["mismatches"] = len(payload["mismatches"]) + len(payload.get("grading_mismatches", []))
    if mode == "trace":
        speed = probe.speed()  # span seconds to reference speed, like report_s
        totals = {k: v * speed if isinstance(v, float) else v
                  for k, v in tracer.layer_totals().items()}
        totals["cli.report_bytes"] = len(data)
        result["layers"] = totals
        result["spans"] = tracer.span_records()
    elif mode == "alloc":
        result["peak_alloc_mib"] = tracer.peak_bytes / (1 << 20)
    return result


def main() -> None:
    import json
    if len(sys.argv) != 3 or sys.argv[1] not in ("setup", "run", "trace", "alloc"):
        sys.exit(__doc__)
    mode, arg = sys.argv[1], json.loads(sys.argv[2])
    result = setup(arg) if mode == "setup" else run(mode, arg)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
