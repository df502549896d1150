#!/usr/bin/env python3
"""Host-cost benchmark for the Pagoda simulator.

    python3 perfbench/run.py --workload fig5_model|fleet_open|compute_verify
                             --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and with it the simulator
libraries in src/) into $CARGO_TARGET_DIR, default .bench_build, then runs
hostbench. With --trace 0 it reports the end-to-end metrics and measures
setup_s: the time from process start to the first timed pass, taken as the
median over five process starts (four set-up-only probes and the measured
run). With --trace 1 it reports the per-layer metrics and writes the traced
pass's spans to <build dir>/spans/. The last line of stdout is the JSON
result; see perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170  # per hostbench process; a run must end within 180 s


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures once, then (re)builds hostbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/", 2)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    cmd = ["cmake", "--build", build_dir, "--target", "hostbench",
           "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)
    return os.path.join(build_dir, "hostbench")


def launch(exe, args):
    """Runs hostbench; returns (exit code, seconds to READY, other lines)."""
    start = time.perf_counter()
    proc = subprocess.Popen([exe] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(TIME_LIMIT_S, proc.kill)
    timer.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    return code, ready, lines


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return []
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig5_model", "fleet_open", "compute_verify"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    exe = build(build_dir)

    base = [f"--workload={args.workload}", f"--seed={args.seed}"]
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            code, ready, _ = launch(exe, base + ["--setup-only"])
            if code != 0 or ready is None:
                fail(f"set-up probe exited with {code}")
            setup_samples.append(ready)

    run_args = base + [f"--seconds={args.seconds}",
                       f"--digests={os.path.join(HERE, 'digests.txt')}"]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        run_args += ["--trace", "--spans-out=" + os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    code, ready, lines = launch(exe, run_args)
    if code != 0 or ready is None or not lines:
        fail(f"hostbench exited with {code}")
    result = json.loads(lines[-1])

    if not args.trace:
        setup_samples.append(ready)
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup_samples), "unit": "s"}
    for name, unit in expected_metrics(args.trace):
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            fail(f"metric {name} ({unit}) missing from the result")

    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print("setup_s samples: " +
              ", ".join(f"{s:.4f}" for s in setup_samples))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
