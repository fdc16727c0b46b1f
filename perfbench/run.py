#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

Workloads: append_durable and read_decide (an in-process 3-node TCP
cluster) and sim_chain_vs_dag (the protocol engine); see BENCHMARK.json for
why each exists. append_mem (the same cluster, memory-only, appends only)
runs the same way but is not in BENCHMARK.json: on a shared 4-vCPU host its
ten-seed spread reached a third of its median. The first call configures and builds
perfbench/CMakeLists.txt, which compiles the libraries under src/, into
.bench_build/perfbench; later calls rebuild only what changed. Durable stores
and span dumps also stay under .bench_build/.

The benchmark prints its metrics by name and unit and, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. This wrapper checks
that the object names exactly the metrics BENCHMARK.json declares for the
mode (end_to_end with --trace 0, per_layer with --trace 1) and passes the
exit code on: nonzero when an output check failed.
"""
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(WORK, "amm_perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no sources to build: {os.path.join(ROOT, 'src')} is missing")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(WORK, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", WORK, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", WORK, "--target", "amm_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args):
    child = subprocess.Popen([BINARY] + args + ["--work-dir", WORK], stdout=subprocess.PIPE,
                             text=True)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"no result within {RUN_TIMEOUT_S} s", 3)
    return child.returncode, out


def main():
    args = sys.argv[1:]
    build()
    code, out = run(args)
    lines = out.rstrip("\n").split("\n")
    if "--self-test" in args:
        print("\n".join(lines))
        return code
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("\n".join(lines), file=sys.stderr)
        fail(f"benchmark exited {code} without a result", code or 3)
    trace = args[args.index("--trace") + 1] == "1" if "--trace" in args else False
    expected = declared_metrics(trace)
    if list(result["metrics"]) != expected:
        print("\n".join(lines), file=sys.stderr)
        fail(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(expected)}", 3)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
