#!/usr/bin/env python3
"""Stack benchmark for the SESAME multi-UAV repository.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the repository's libraries from src/) into
.bench_build/perfbench; later calls rebuild only what changed. A run prints
every metric by name with its unit, notes (sample counts, tails, self-check
verdicts) and a host record, and as its last line the result object
{"correct", "attempted", "failed", "metrics"}. Each result is also saved,
with the host record, under .bench_build/results/ for --compare.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "results"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("timed out after %d s: %s" % (timeout, " ".join(cmd)), 5)
    return proc.returncode, out


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("repository sources not found next to perfbench/", 2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        code, out = run(cmd, BUILD_TIMEOUT_S)
        if code != 0:
            sys.stderr.write(out)
            die("build failed: " + " ".join(cmd), 3)
    return BUILD / target


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt"]
    for tree in (ROOT / "src", HERE / "src"):
        files += [p for p in tree.rglob("*") if p.is_file()]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Problems with the result line against BENCHMARK.json (empty = ok)."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    declared = declared_metrics(trace)
    if set(result["metrics"]) != set(declared):
        problems.append("metric set differs from BENCHMARK.json: %s" %
                        sorted(set(result["metrics"]) ^ set(declared)))
    for name, metric in result["metrics"].items():
        if name in declared and metric["unit"] != declared[name]["unit"]:
            problems.append("unit of %s is %s, BENCHMARK.json says %s" %
                            (name, metric["unit"], declared[name]["unit"]))
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    return problems


def benchmark(args):
    binary = build("perfbench_sesame")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out = run(cmd, RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if code != 0 or len(lines) < 2:
        sys.stderr.write(out)
        die("benchmark exited with code %d" % code, 4)
    try:
        host = json.loads(lines[-2])["host"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError) as e:
        sys.stderr.write(out)
        die("unreadable result: %s" % e, 4)
    problems = check_result(result, args.trace == 1)
    if problems:
        sys.stderr.write(out)
        die("; ".join(problems), 4)
    host["commit"] = commit()
    host["source_digest"] = source_digest()
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = RESULTS / ("%s-seed%d-trace%d.json" %
                        (args.workload, args.seed, args.trace))
    record.write_text(json.dumps({"host": host, "result": result}, indent=1))
    lines[-2] = json.dumps({"host": host})
    sys.stdout.write("\n".join(lines) + "\n")


def compare(path_a, path_b):
    """Prints per-metric changes B vs A. Records from hosts with another
    build type or CPU count are flagged and not compared."""
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    mismatched = [k for k in ("build_type", "num_cpus", "workload", "trace")
                  if a["host"].get(k) != b["host"].get(k)]
    if mismatched:
        print("FLAGGED, not compared: %s differ (%s)" % (
            ", ".join(mismatched),
            "; ".join("%s %s vs %s" % (k, a["host"].get(k), b["host"].get(k))
                      for k in mismatched)))
        return 3
    declared = declared_metrics(a["host"]["trace"] == 1)
    for name, spec in declared.items():
        va = a["result"]["metrics"][name]["value"]
        vb = b["result"]["metrics"][name]["value"]
        change = (vb - va) / va if va else 0.0
        worse = change if spec["better"] == "lower" else -change
        verdict = ""
        if "bound" in spec:
            verdict = "  REGRESSION" if worse > spec["bound"] else "  within bound"
        print("%-28s %14.6g -> %14.6g %-6s %+7.2f%%%s" %
              (name, va, vb, spec["unit"], 100 * change, verdict))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        binary = build("perfbench_selftest")
        return subprocess.run([str(binary)], cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")
    benchmark(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
