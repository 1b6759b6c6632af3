#!/usr/bin/env python3
"""Offered-rate sweep of the serve_zipf workload, to find its saturation.

Run from the repository root:

    python3 perfbench/saturation.py [--seed 1] [--seconds 15]
                                    [--rates 30,60,120,240,480,960]

For each offered rate it runs serve_zipf untraced (same catalog, same
four connections, same dispatcher) and prints the rate the service
answered at, the generator's lateness and the latency quantiles. Below
saturation the answered rate tracks the offered rate and the generator
is on time; past it the answered rate flattens and lateness grows with
the run. serve_zipf's offered rate is a stated fraction of the answered
rate at saturation (see perfbench/README.md).
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--rates", default="30,60,120,240,480,960")
    args = parser.parse_args()

    run.build()
    print("%9s %9s %10s %10s %10s %10s %10s"
          % ("offered", "answered", "late_p50", "late_p99", "p50_ms",
             "p90_ms", "p99_ms"))
    for rate in [float(r) for r in args.rates.split(",")]:
        proc = subprocess.run(
            [run.BINARY, "--workload", "serve_zipf", "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0",
             "--limit-ms", "500", "--threads", "4",
             "--offered-rps", str(rate)],
            capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
        raw = [l for l in proc.stdout.splitlines()
               if l.startswith("PERFBENCH_RESULT ")]
        if proc.returncode != 0 or not raw:
            run.fail("serve_zipf at %g req/s failed" % rate)
        result = json.loads(raw[-1][len("PERFBENCH_RESULT "):])
        info, metrics = result["info"], result["metrics"]
        print("%9.0f %9.1f %10.1f %10.1f %10.2f %10.2f %10.2f"
              % (rate, float(info["answered_rps"]),
                 float(info["generator_late_ms_p50"]),
                 float(info["generator_late_ms_p99"]),
                 metrics["latency_p50_ms"]["value"],
                 metrics["latency_p90_ms"]["value"],
                 metrics["latency_p99_ms"]["value"]), flush=True)


if __name__ == "__main__":
    main()
