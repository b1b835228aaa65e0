"""Write bench/golden.json: the sha256 of every report the benchmark can request.

    python3 bench/record_golden.py

Run it only at a commit whose reports are known to be right.  The benchmark
then counts every report whose bytes differ from these as failed.
"""

import json
import shlex
import sys
import time

import run as bench


def main() -> None:
    deadline = time.monotonic() + 3600
    golden = {}
    for workload in bench.WORKLOADS:
        golden[workload] = {}
        for argv in bench.all_commands(workload):
            result = bench.execute("run", argv, deadline)
            ok = result.get("exit") == 0
            if workload in bench.ISO_WORKLOADS:
                ok = ok and result.get("status") == "verified" and result.get("mismatches") == 0
            if not ok:
                sys.exit(f"not recording a failing report: {shlex.join(argv)}: {result}")
            golden[workload][shlex.join(argv)] = result["sha256"]
            print(f"{workload}: {shlex.join(argv)} {result['sha256']}")
    with open(bench.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
