#!/usr/bin/env python3
"""Service benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/perfbench.exe with
dune (release profile, build dir _build_perfbench), runs the named workload
of BENCHMARK.json with its frozen shape and rates from perfbench/spec.json,
and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics, named and with the units BENCHMARK.json
gives them. The line before it is a JSON object with the run's
detail and environment (nproc, OCaml version, the data dir's filesystem,
hypervisor steal over the run). With --trace 0 the metrics are the
end-to-end metrics, with --trace 1 the per-layer ones; per-layer metrics a
workload does not exercise read 0 and are listed under "not_measured".

Exit status: 0 on success, 1 when a correctness gate failed (the result is
still printed, with "correct": false), 2 on bad arguments or a checkout
without the sources, 3 when the build fails, 4 when the run itself fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = "_build_perfbench"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def die(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def steal_ticks():
    """Hypervisor steal time (USER_HZ ticks) and total ticks from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        ticks = [int(x) for x in fields[1:]]
        return ticks[7] if len(ticks) > 7 else 0, sum(ticks)
    except (OSError, ValueError):
        return 0, 0


def filesystem_of(path):
    """Filesystem type of the mount holding path (longest mount-point prefix)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1]
                inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) > len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def live_argv(shape, rates):
    argv = ["--n", str(shape["n"]), "--t", str(shape["t"])]
    if shape["mute"]:
        argv += ["--mute", ",".join(str(p) for p in shape["mute"])]
    if shape["durable"]:
        argv.append("--durable")
    argv += [
        "--nominal", str(rates["nominal"]),
        "--high", str(rates["high"]),
        "--burst", str(rates["job_requests"]),
    ]
    return argv


def spec_drift(bench, spec):
    """Where perfbench/spec.json and BENCHMARK.json disagree, as messages."""
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    problems = []
    if set(spec["workloads"]) != workloads:
        problems.append("workloads differ: %s" % sorted(set(spec["workloads"]) ^ workloads))
    for kind in ("end_to_end", "per_layer"):
        listed = {m["name"] for m in bench[kind]}
        noted = set(spec["notes"][kind])
        if listed != noted:
            problems.append("%s metrics differ: %s" % (kind, sorted(listed ^ noted)))
    for name, note in spec["notes"]["per_layer"].items():
        for target in note["moves"]:
            metric, _, workload = target.partition("@")
            if metric not in e2e or workload not in workloads:
                problems.append("%s moves unknown %s" % (name, target))
        moved_on = {target.partition("@")[2] for target in note["moves"]}
        for workload in note["flat_on"]:
            if workload not in workloads:
                problems.append("%s flat on unknown workload %s" % (name, workload))
            if workload in moved_on:
                problems.append("%s both moves and stays flat on %s" % (name, workload))
    return problems


def main():
    ap = argparse.ArgumentParser(description="Run one perfbench workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "BENCHMARK.json", os.path.join("perfbench", "spec.json")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("not a source checkout (missing %s)" % needed, 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    drift = spec_drift(bench, spec)
    if drift:
        die("perfbench/spec.json disagrees with BENCHMARK.json: " + "; ".join(drift), 2)
    workload = spec["workloads"].get(args.workload)
    if workload is None:
        die("unknown workload %r (have: %s)" % (args.workload, ", ".join(spec["workloads"])), 2)

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", BUILD_DIR,
         "./perfbench/perfbench.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(build.stdout)
        die("build failed", 3)

    argv = [EXE, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    argv += live_argv(workload["shape"], workload["rates"])

    steal0, total0 = steal_ticks()
    started = time.time()
    # Own process group, so a timeout takes the deployment children down too.
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    steal1, total1 = steal_ticks()
    lines = out.splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out)
        die("run failed (exit %d) without a result" % proc.returncode, 4)
    if proc.returncode not in (0, 1):
        die("run failed (exit %d)" % proc.returncode, 4)
    for line in lines[:-1]:
        print(line)

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics, not_measured = {}, []
    for meta in wanted:
        name = meta["name"]
        value = raw["metrics"].get(name)
        if value is None:
            if not args.trace:
                die("run did not report end-to-end metric %s" % name, 4)
            value = 0.0
            not_measured.append(name)
        metrics[name] = {"value": value, "unit": meta["unit"]}

    hz = os.sysconf("SC_CLK_TCK")
    env = {
        "nproc": os.cpu_count(),
        "ocaml": raw.get("ocaml"),
        "data_dir_fs": filesystem_of(ROOT),
        "steal_s": (steal1 - steal0) / hz,
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "wall_s": time.time() - started,
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "env": env, "not_measured": not_measured, "detail": raw.get("detail")}))
    print(json.dumps({"correct": bool(raw["correct"]), "attempted": max(1, int(raw["attempted"])),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    sys.exit(0 if raw["correct"] else 1)


if __name__ == "__main__":
    main()
