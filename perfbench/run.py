#!/usr/bin/env python3
"""Repository benchmark for the ProFess simulator.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each was chosen):

* ``figsuite``: the 13 figure/table binaries of ``profess-bench`` run one
  after another as child processes at a fixed reduced target;
* ``quad_mix``, ``solo_sweep``, ``write_heavy``: in-process simulator
  workloads run by ``perfdrive`` (``perfbench/driver.rs``).

The first run builds the workspace with cargo (``CARGO_TARGET_DIR``,
default ``.bench_build``) and compiles ``driver.rs`` with rustc against the
workspace's release rlibs; the benchmark has no Cargo manifest of its own
because the repository's analyzer treats every ``Cargo.toml`` in the tree
as a workspace member that the root lockfile must list.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

FIG_BINS = [
    "fig02", "fig05", "fig06", "fig07", "fig08_09", "fig10_12", "fig13_15",
    "fig16", "sens_ratio", "sens_wr", "ablation", "mempod_vs_pom", "table4",
]
# Memory operations per program for every figure bin but table4, which
# exits 101 below its largest RSM sampling period (32768).
FIG_TARGET = "3000"
TABLE4_TARGET = "50000"
FIG_THREADS = "2"
# Lines the bins print that name per-run artifact paths (a traced run
# adds a trace-artifact line); they are dropped before outputs compare.
ARTIFACT_PREFIXES = (b"perf artifact:", b"rows artifact:", b"trace artifact:")
SETUP_REPS = 15
BIN_TIMEOUT_S = 120
DRIVE_TIMEOUT_S = 170
# Per-layer metrics a workload cannot observe; they are reported as 0.
# The figure bins are separate processes, so calls inside them cannot be
# timed from the benchmark, and the in-process workloads run no bins.
FIGSUITE_UNOBSERVED_PREFIXES = (
    "trace.", "policy.", "run_loop.", "mem.", "core.", "cpu.", "sim_req_per_s",
)
IN_PROCESS_UNOBSERVED_PREFIXES = ("bench.",)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def tool_env(tmp):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target_dir()
    env["TMPDIR"] = tmp
    return env


def build():
    """Builds the figure bins and the profess rlib, then perfdrive."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no Cargo.toml here: run from the root of a repository checkout")
    tgt = target_dir()
    tmp = os.path.join(tgt, "perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "-p", "profess", "--lib", "-p", "profess-bench"]
    for b in FIG_BINS:
        cmd += ["--bin", b]
    r = subprocess.run(cmd, cwd=ROOT, env=tool_env(tmp), stdout=sys.stderr)
    if r.returncode != 0:
        fail(f"cargo build failed with exit code {r.returncode}")
    release = os.path.join(tgt, "release")
    rlib = os.path.join(release, "libprofess.rlib")
    src = os.path.join(HERE, "driver.rs")
    exe = os.path.join(tgt, "perfbench", "perfdrive")
    stale = not os.path.exists(exe) or os.path.getmtime(exe) < max(
        os.path.getmtime(rlib), os.path.getmtime(src))
    if stale:
        rustc = os.environ.get("RUSTC") or "rustc"
        cmd = [rustc, "--edition", "2021", "--crate-type", "bin",
               "--crate-name", "perfdrive", "-C", "opt-level=3",
               "-C", "codegen-units=1", src, "-o", exe,
               "--extern", f"profess={rlib}", "-L", f"dependency={release}/deps"]
        r = subprocess.run(cmd, cwd=ROOT, env=tool_env(tmp), stdout=sys.stderr)
        if r.returncode != 0:
            fail(f"rustc failed to build perfdrive (exit code {r.returncode})")
    return release, exe


def cpu_children_s():
    """cutime + cstime of this process (children waited for), seconds."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[13]) + int(fields[14])) / os.sysconf("SC_CLK_TCK")


def bin_env(results):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PROFESS_")}
    env["PROFESS_THREADS"] = FIG_THREADS
    env["PROFESS_RESULTS_DIR"] = results
    return env


def run_child(argv, env, out_path):
    """Runs one child to completion; returns (seconds, exit code, max RSS kB)."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                             stderr=subprocess.DEVNULL)
        timer = threading.Timer(BIN_TIMEOUT_S, p.kill)
        timer.start()
        _, status, usage = os.wait4(p.pid, 0)
        dt = time.perf_counter() - t0
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return dt, p.returncode, usage.ru_maxrss


def masked(path):
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    return b"\n".join(l for l in lines if not l.startswith(ARTIFACT_PREFIXES))


def slowdown(exe):
    """Host slowdown against the reference speed, from perfdrive's
    calibration kernel (see ``Calibrator`` in driver.rs)."""
    r = subprocess.run([exe, "calib"], capture_output=True, timeout=BIN_TIMEOUT_S)
    if r.returncode != 0:
        fail(f"perfdrive calib exited with code {r.returncode}")
    return float(r.stdout)


def suite_pass(release, exe, work, k, traced):
    """Runs the 13 bins once: per-bin host seconds and the same at
    reference host speed, the bins' CPU seconds, masked outputs, exit
    codes and the largest max RSS (kB)."""
    results = os.path.join(work, f"results{k}")
    os.makedirs(results)
    env = bin_env(results)
    p = types.SimpleNamespace(raw={}, norm={}, cpu=0.0, outs={}, rcs={}, rss=0)
    # Each bin runs between two calibrations; the host speed during the
    # bin is taken as their mean.
    before = slowdown(exe)
    for b in FIG_BINS:
        argv = [os.path.join(release, b), TABLE4_TARGET if b == "table4" else FIG_TARGET]
        if traced:
            argv.append("--trace")
        out = os.path.join(work, f"{b}.{k}.out")
        c0 = cpu_children_s()
        dt, p.rcs[b], kb = run_child(argv, env, out)
        p.cpu += cpu_children_s() - c0
        after = slowdown(exe)
        p.raw[b] = dt
        p.norm[b] = dt * 2 / (before + after)
        before = after
        p.outs[b] = masked(out)
        p.rss = max(p.rss, kb)
    shutil.rmtree(results)
    return p


def pass_time(passes, field):
    """Sum over bins of each bin's median over passes: a pass time that
    one slow bin in one pass does not move."""
    return sum(statistics.median(getattr(p, field)[b] for p in passes) for b in FIG_BINS)


def figsuite_setup(release, exe, work):
    """Median time, at reference host speed, to prepare a fresh results
    directory and start each bin up to its argument check (a non-numeric
    target, rejected with exit 2 before any simulation)."""
    times = []
    before = slowdown(exe)
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        results = os.path.join(work, f"setup{rep}")
        os.makedirs(results)
        env = bin_env(results)
        for b in FIG_BINS:
            _, rc, _ = run_child([os.path.join(release, b), "setup-probe"], env,
                                 os.devnull)
            if rc != 2:
                fail(f"{b} did not reject a non-numeric target (exit {rc})")
        shutil.rmtree(results)
        dt = time.perf_counter() - t0
        after = slowdown(exe)
        times.append(dt * 2 / (before + after))
        before = after
    return statistics.median(times)


def run_figsuite(release, exe, seconds, trace):
    work = os.path.join(target_dir(), "perfbench", "figsuite")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    setup_s = figsuite_setup(release, exe, work)
    plain, traced = [], []
    t0 = time.perf_counter()
    k = 0
    # Untraced and traced passes alternate so both see the same host
    # conditions.
    while len(plain) < 2 or time.perf_counter() - t0 < seconds:
        k += 1
        if trace and len(traced) < len(plain):
            traced.append(suite_pass(release, exe, work, k, True))
        else:
            plain.append(suite_pass(release, exe, work, k, False))
    shutil.rmtree(work, ignore_errors=True)

    reference = plain[0].outs
    attempted = failed = 0
    for p in plain + traced:
        for b in FIG_BINS:
            attempted += 1
            if p.rcs[b] != 0 or p.outs[b] != reference[b]:
                print(f"figsuite: {b} exit {p.rcs[b]}, stdout "
                      f"{'matches' if p.outs[b] == reference[b] else 'differs'}",
                      file=sys.stderr)
                failed += 1
    digest = hashlib.sha256(b"".join(reference[b] for b in FIG_BINS)).hexdigest()[:16]
    norms = [sum(p.norm.values()) for p in plain]
    print(f"figsuite: untraced pass seconds at reference speed {norms}", file=sys.stderr)
    raw_s = pass_time(plain, "raw")
    wall_s = pass_time(plain, "norm")
    if not trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (max(p.rss for p in plain) / 1024.0, "MB"),
        }
    else:
        metrics = {f"bench.{b}_s": (statistics.median(p.norm[b] for p in plain), "s")
                   for b in FIG_BINS}
        cpu = sum(p.cpu for p in plain)
        bins_s = sum(sum(p.raw.values()) for p in plain)
        metrics["host.cpu_util"] = (cpu / (bins_s * os.cpu_count()), "ratio")
        metrics["host.raw_wall_s"] = (raw_s, "s")
        metrics["host.slowdown"] = (raw_s / wall_s, "ratio")
        metrics["trace_overhead"] = (pass_time(traced, "norm") / wall_s, "ratio")
    info = {"workload": "figsuite", "digest": digest, "passes": len(plain) + len(traced)}
    return info, attempted, failed, metrics


def run_in_process(exe, workload, seed, seconds, trace):
    argv = [exe, workload, str(seed), str(seconds), "1" if trace else "0"]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PROFESS_")}
    try:
        r = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                           timeout=DRIVE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfdrive {workload} did not finish within {DRIVE_TIMEOUT_S} s")
    sys.stderr.write(r.stderr.decode(errors="replace"))
    lines = r.stdout.decode().strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"perfdrive {workload} exited with code {r.returncode}")
    res = json.loads(lines[-1])
    metrics = {n: (m["value"], m["unit"]) for n, m in res.pop("metrics").items()}
    attempted, failed = res.pop("attempted"), res.pop("failed")
    if trace:
        shares = sum(metrics[n][0] for n in ("trace.share", "policy.share", "run_loop.share"))
        if abs(shares - 1.0) > 1e-9:
            print(f"layer shares sum to {shares}, not 1", file=sys.stderr)
            failed += 1
    return res, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload `{args.workload}`; expected one of {names}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    release, exe = build()
    if args.workload == "figsuite":
        print("figsuite: the bins fix their own seeds; --seed is not used",
              file=sys.stderr)
        info, attempted, failed, metrics = run_figsuite(release, exe, args.seconds, args.trace)
        unobserved = FIGSUITE_UNOBSERVED_PREFIXES
    else:
        info, attempted, failed, metrics = run_in_process(
            exe, args.workload, args.seed, args.seconds, args.trace)
        unobserved = IN_PROCESS_UNOBSERVED_PREFIXES
    print(json.dumps(info))

    out = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name in metrics:
            value, got_unit = metrics.pop(name)
            if got_unit != unit:
                fail(f"metric {name}: unit {got_unit}, declared {unit}")
        elif args.trace and name.startswith(unobserved):
            value = 0
        else:
            fail(f"metric {name} was not measured")
        if not math.isfinite(value):
            fail(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": unit}
    if metrics:
        fail(f"measured metrics not declared in BENCHMARK.json: {sorted(metrics)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
