#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload zoo_cold --seed 1 --seconds 30 --trace 0

The benchmark binary (perfbench/src) is built from the checkout's sources
into .bench_build/perfbench on first use. Workloads, metrics, units and
bounds come from BENCHMARK.json at the repository root; each workload's
goodput latency limit is the "latency limit N ms" of its "why".

--trace 0 measures the end-to-end metrics, --trace 1 the per-layer
metrics (a separate run, so tracing never perturbs the end-to-end
numbers). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Every run is also appended,
with sample counts, clocks, plan digest and host/build fingerprint, to
.bench_build/results/<workload>.jsonl, which perfbench/compare.py reads.
The traced run writes its spans to .bench_build/traces/.

Exit status: 0 when the run completed and every output check passed,
1 when an output check failed (the result line is still printed), 2
when the benchmark cannot run here (no sources, build failure, bad
arguments, benchmark binary crash); nothing is printed on stdout then.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "temp_perfbench")
RUN_TIMEOUT_S = 170
MAX_THREADS = 4


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_manifest():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def latency_limit_ms(workload):
    match = re.search(r"latency limit (\d+) ms", workload["why"])
    if not match:
        fail("workload %s names no 'latency limit N ms'" % workload["name"])
    return int(match.group(1))


def build():
    """Configures (once) and builds the benchmark binary; build logs go to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no program sources in %s (CMakeLists.txt and src/)" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(os.cpu_count() or 1, MAX_THREADS)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD_DIR, "--target", "temp_perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def cpu_ticks():
    """The aggregate cpu line of /proc/stat (empty when unavailable)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()[1:]
        return [int(x) for x in fields[:8]] if len(fields) >= 8 else []
    except OSError:
        return []


def host_reference_ms():
    """Best of three timings of a fixed pure-Python loop, in ms.

    It runs none of the program under test, so it tracks only how fast
    the host itself is running: on a shared host that speed drifts by
    tens of percent over minutes, and two result sets taken at different
    host speeds differ by that much whatever the code did.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(1000000):
            x += i * i
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    head = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            head = out.stdout.strip()
    # Content digest of the program sources: identifies the code under
    # test even in a checkout that is not a git repository.
    digest = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_head": head,
            "source_sha256": digest.hexdigest()[:16]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    manifest = load_manifest()
    workloads = {w["name"]: w for w in manifest["workloads"]}
    if args.workload not in workloads:
        fail("unknown workload %r (have %s)"
             % (args.workload, ", ".join(workloads)))
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    expected = manifest["per_layer" if args.trace else "end_to_end"]

    build()
    threads = max(1, min(os.cpu_count() or 1, MAX_THREADS))
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--limit-ms", str(latency_limit_ms(workloads[args.workload])),
               "--threads", str(threads)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-path", os.path.join(
            traces, "%s-%d.jsonl" % (args.workload, args.seed))]
    started = time.time()
    reference_before = host_reference_ms()
    steal_before = cpu_ticks()
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    steal_after = cpu_ticks()
    reference_ms = (reference_before + host_reference_ms()) / 2
    lines = proc.stdout.splitlines()
    raw = [l for l in lines if l.startswith("PERFBENCH_RESULT ")]
    if proc.returncode != 0 or not raw:
        fail("benchmark binary failed (exit %d)" % proc.returncode)
    detail = json.loads(raw[-1][len("PERFBENCH_RESULT "):])
    for line in lines:
        if not line.startswith("PERFBENCH_RESULT "):
            print(line)

    problems = list(detail["check_failures"])
    metrics = {}
    for spec in expected:
        got = detail["metrics"].get(spec["name"])
        if got is None:
            problems.append("metric %s not reported" % spec["name"])
        elif got["unit"] != spec["unit"]:
            problems.append("metric %s in %s, expected %s"
                            % (spec["name"], got["unit"], spec["unit"]))
        else:
            metrics[spec["name"]] = {"value": got["value"],
                                     "unit": got["unit"]}
    correct = not problems
    for problem in problems:
        print("OUTPUT CHECK FAILED: " + problem)

    host = host_fingerprint()
    if steal_before and steal_after:
        # Share of CPU time the hypervisor gave to other guests during
        # the run: high values explain noisy timings.
        total = sum(steal_after) - sum(steal_before)
        host["cpu_steal_share"] = round(
            (steal_after[7] - steal_before[7]) / total, 4) if total else 0.0
    host["host_reference_ms"] = round(reference_ms, 3)
    host.update({k: detail["info"][k] for k in
                 ("compiler", "build_type", "vector_capable", "threads")})
    print("host: " + json.dumps(host, sort_keys=True))
    print("plan_digest: %s (reported, not gated)" % detail["plan_digest"])

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "started": started, "correct": correct,
              "attempted": detail["attempted"], "failed": detail["failed"],
              "plan_digest": detail["plan_digest"], "host": host,
              "info": detail["info"], "metrics": detail["metrics"]}
    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, args.workload + ".jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
