#!/usr/bin/env python3
"""Builds and runs the TriPriv end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: pir_serve, epoch_churn, stat_query, table2 (see
perfbench/README.md). The first run in a checkout configures and builds
perfbench/ (a standalone CMake project over ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is
non-zero when the build fails, an output check fails, or the result does not
name exactly the metrics BENCHMARK.json declares.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("pir_serve", "epoch_churn", "stat_query", "table2")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def run_logged(cmd, log, timeout):
    with open(log, "ab") as out:
        out.write(("$ " + " ".join(str(c) for c in cmd) + "\n").encode())
        out.flush()
        return subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "-j", "4",
                      "--target", "tripriv_perfbench"])
        for cmd in steps:
            try:
                code = run_logged(cmd, log, BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                code = f"{type(err).__name__}: {err}"
            if code != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("perfbench: build step failed (%s): %s\n%s\n" %
                                 (code, " ".join(cmd), "\n".join(tail)))
                return None
    return build_dir / "tripriv_perfbench"


def source_digest():
    """SHA-256 over every file under src/ and perfbench/ (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        sys.stderr.write("perfbench: no TriPriv sources at %s/src\n" % ROOT)
        return 1
    expected = declared_metrics(args.trace)
    build_dir = build_root() / "perfbench"
    binary = build(build_dir)
    if binary is None:
        return 1

    print("provenance.source " + json.dumps({
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
    }), flush=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(line for line in lines
                                   if not line.startswith("{")) + "\n")
        sys.stderr.write("perfbench: run failed with exit code %d\n" %
                         proc.returncode)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.stderr.write("perfbench: result metrics differ from BENCHMARK.json: "
                         "missing %s, unexpected %s, unit mismatches %s\n" % (
                             sorted(set(expected) - set(got)),
                             sorted(set(got) - set(expected)),
                             sorted(n for n in got if n in expected
                                    and got[n] != expected[n])))
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
