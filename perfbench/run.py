#!/usr/bin/env python3
"""Repo benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload fig10 --seed 7 --seconds 30 --trace 0

Run from the repository root. Builds the runner package in `perfbench/`
(release profile, into $CARGO_TARGET_DIR, default `.bench_build`), then
starts one fresh runner process per pass until `--seconds` have passed,
so every pass starts with the process-wide memos empty. Checks every
pass's result digest, prints the host stamp and every metric by name
with its unit, writes the full record to `.bench_out/`, and prints one
JSON object as the last line of standard output:

    {"correct": true, "attempted": 90, "failed": 0, "metrics": {...}}

`--trace 0` reports the end-to-end metrics; `--trace 1` runs one
untraced pass, then traced passes, and reports the per-layer metrics.
Host times are reported in reference-host seconds: each pass times a
fixed probe kernel (perfbench/src/calibrate.rs) and its times are
scaled by REFERENCE_PROBE_S over the pass's median probe time, so that
the host's own drifting speed cancels. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("fig10", "fig10_transient", "memfault", "mission")
HERE = os.path.dirname(os.path.abspath(__file__))
# Passes stop this long after the build, so a run ends well inside
# three minutes even when a pass hangs.
RUN_DEADLINE_S = 160
# Probe kernel seconds on the reference host that scaled host times are
# expressed in.
REFERENCE_PROBE_S = 0.02

END_TO_END = (
    ("wall_s", "s"),
    ("rows_per_s", "rows/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Per-layer metrics: (name, unit). Times are seconds of self time.
PER_LAYER = (
    ("datasets.gen_s", "s"),
    ("circuits.inject_s", "s"),
    ("circuits.inject_calls", "count"),
    ("logic.lut_hits", "count"),
    ("logic.lut_misses", "count"),
    ("ann.fused_compile_s", "s"),
    ("ann.fused_hits", "count"),
    ("ann.fused_misses", "count"),
    ("ann.fused_hit_ratio", "ratio"),
    ("ann.fused_refused", "count"),
    ("logic.opt_instrs_in", "count"),
    ("logic.opt_instrs_out", "count"),
    ("ann.fwd_s", "s"),
    ("ann.fwd_rows", "rows"),
    ("ann.fwd_rows_per_s", "rows/s"),
    ("ann.backprop_s", "s"),
    ("ann.eval_s", "s"),
    ("ann.eval_rows", "rows"),
    ("mem.defects_mean", "count"),
    ("mem.defects_max", "count"),
    ("mem.ecc_corrected", "count"),
    ("mem.ecc_uncorrectable", "count"),
    ("core.bist_s", "s"),
    ("core.bist_calls", "count"),
    ("core.bist_flagged", "count"),
    ("core.recover_s", "s"),
    ("core.rungs_run", "count"),
    ("core.rungs_improved", "count"),
    ("core.rung_timeouts", "count"),
    ("core.mission_spatial_s", "s"),
    ("core.mission_systolic_s", "s"),
    ("systolic.eval_s", "s"),
    ("systolic.eval_rows", "rows"),
    ("core.mission_batches", "count"),
    ("core.mission_probes", "count"),
    ("core.mission_episodes", "count"),
    ("core.mission_quarantines", "count"),
    ("core.detect_latency_batches", "batches"),
    ("unattributed_s", "s"),
    ("trace_overhead_frac", "ratio"),
)


def log(msg):
    print(msg, flush=True)


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def build(target_dir):
    """Builds the runner; returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    # Every dependency is a path dependency, so cargo needs no registry:
    # its home (caches, locks) lives in the build directory too, and the
    # build writes nothing outside the checkout.
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir,
               CARGO_HOME=os.path.abspath(os.path.join(target_dir, "cargo-home")))
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        die(f"build failed ({' '.join(cmd)} exited {proc.returncode})")
    runner = os.path.join(target_dir, "release", "perfbench-runner")
    if not os.path.isfile(runner):
        die(f"runner missing after build: {runner}")
    return runner


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root):
    """SHA-256 over the sources the runner is built from."""
    h = hashlib.sha256()
    names = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "shims", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            for f in sorted(filenames):
                if f.endswith((".rs", ".toml", ".lock", ".py", ".json")):
                    names.append(os.path.relpath(os.path.join(dirpath, f), root))
    for name in names:
        path = os.path.join(root, name)
        if os.path.isfile(path):
            h.update(name.encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def host_stamp(root, args, target_dir):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "git_rev": command_output(["git", "-C", root, "rev-parse", "HEAD"]),
        "source_digest": source_digest(root),
        "profile": "release",
        "target_dir": target_dir,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_pass(runner, args, traced, index, out_dir, timeout):
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0"]
    if traced:
        spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}-pass{index}.jsonl")
        cmd += ["--spans", spans]
    try:
        # subprocess.run kills and reaps the runner on timeout.
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"pass {index} timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"pass {index} exited {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"pass {index} printed no result"


TAIL_PERCENTILE = 90


def speed_scale(p):
    """Factor from a pass's host seconds to reference-host seconds."""
    return REFERENCE_PROBE_S / statistics.median(p["probe_s"])


def nearest_rank(values, pct):
    xs = sorted(values)
    return xs[max(math.ceil(pct / 100 * len(xs)) - 1, 0)]


def unit_times(passes):
    """(median, tail) unit time in reference-host ms. A pass's units are distinct
    deterministic jobs, so each statistic is taken over the units of one
    pass (the median unit, and the unit at TAIL_PERCENTILE by nearest
    rank), then the median over passes: the statistic stays on the same
    job from run to run instead of jumping between the cost steps of a
    pooled distribution."""
    ms = [[u["ms"] * speed_scale(p) for u in p["units"]] for p in passes]
    return (statistics.median(statistics.median(m) for m in ms),
            statistics.median(nearest_rank(m, TAIL_PERCENTILE) for m in ms))


def load_digests():
    path = os.path.join(HERE, "digests.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    runner = build(target_dir)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    host = host_stamp(root, args, target_dir)
    log("host " + json.dumps(host, sort_keys=True))

    # Passes: fresh processes until the time is up. A traced run starts
    # with one untraced pass, the reference for the digest check and
    # the tracing overhead.
    passes, errors = [], []
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    while True:
        index = len(passes) + len(errors)
        traced = args.trace == 1 and index > 0
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            break
        result, err = run_pass(runner, args, traced, index, out_dir, timeout)
        if err:
            errors.append(err)
            log(f"pass {index}: FAILED: {err}")
        else:
            result["index"] = index
            passes.append(result)
            log(f"pass {index}: wall {result['wall_s']:.4f} s, probe "
                f"{statistics.median(result['probe_s']) * 1e3:.2f} ms, digest {result['digest']}"
                + (" (traced)" if traced else ""))
        # Stop when a next pass of the mean length so far would end past
        # `--seconds`, once the minimum passes are in.
        enough = len(passes) >= (3 if args.trace else 2)
        elapsed = time.monotonic() - started
        if (enough or index >= 7) and elapsed + (elapsed / (index + 1)) > args.seconds:
            break
    timed = [p for p in passes if p["trace"] == args.trace]
    if not timed:
        die("no measured pass completed: " + "; ".join(errors))

    # Digest check: every pass must reproduce the stored digest of this
    # seed, or, for a seed with none stored, the first pass's digest.
    stored = load_digests().get(args.workload, {}).get(str(args.seed))
    reference = stored or passes[0]["digest"]
    mismatched = [p for p in passes if p["digest"] != reference]
    for p in mismatched:
        log(f"pass {p['index']}: digest {p['digest']} != expected {reference}")
    units_per_pass = len(passes[0]["units"])
    attempted = units_per_pass * (len(passes) + len(errors))
    failed = units_per_pass * (len(mismatched) + len(errors)) + sum(
        sum(u["failed"] for u in p["units"]) for p in passes if p not in mismatched)
    correct = not mismatched and not errors

    record = {
        "host": host,
        "params": passes[0]["params"],
        "digest": {"expected": reference, "stored": stored is not None,
                   "passes": [p["digest"] for p in passes]},
        "passes": len(passes),
        "pass_errors": errors,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "reference_probe_s": REFERENCE_PROBE_S,
        "probe_s": [statistics.median(p["probe_s"]) for p in passes],
    }
    p50, tail = unit_times(timed)
    if args.trace == 0:
        values = {
            "wall_s": statistics.median(p["wall_s"] * speed_scale(p) for p in timed),
            "rows_per_s": statistics.median(
                p["rows"] / (p["wall_s"] * speed_scale(p)) for p in timed),
            "unit_ms_p50": p50,
            "unit_ms_tail": tail,
            "setup_s": statistics.median(
                s * speed_scale(p) for p in timed for s in p["setup_s"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
        }
        spec = END_TO_END
        record["unit_ms_tail"] = {"percentile": TAIL_PERCENTILE, "units_per_pass": units_per_pass,
                                  "passes": len(timed)}
        record["rows_per_pass"] = timed[0]["rows"]
        record["unscaled"] = {
            "wall_s": statistics.median(p["wall_s"] for p in timed),
            "rows_per_s": statistics.median(p["rows"] / p["wall_s"] for p in timed),
        }
    else:
        # Times scale with host speed, rates inversely; counts not at all.
        power = {"s": 1, "rows/s": -1}
        values = {name: statistics.median(
                      p["layers"][name] * speed_scale(p) ** power.get(unit, 0) for p in timed)
                  for name, unit in PER_LAYER if name in timed[0]["layers"]}
        untraced = [p for p in passes if p["trace"] == 0]
        traced_wall = statistics.median(p["wall_s"] * speed_scale(p) for p in timed)
        values["trace_overhead_frac"] = (
            traced_wall / (untraced[0]["wall_s"] * speed_scale(untraced[0])) - 1.0
            if untraced else 0.0)
        spec = PER_LAYER
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}
    record["metrics"] = metrics

    for name, unit in spec:
        log(f"{name:<28} {values[name]:>16.6g} {unit}")
    log(f"host times in reference-host seconds: probe median "
        f"{statistics.median(record['probe_s']) * 1e3:.2f} ms, reference "
        f"{REFERENCE_PROBE_S * 1e3:.0f} ms")
    if args.trace == 0:
        log(f"unscaled wall_s {record['unscaled']['wall_s']:.6g} s, rows_per_s "
            f"{record['unscaled']['rows_per_s']:.6g} rows/s")
        log(f"unit_ms_tail is p{TAIL_PERCENTILE} of the {units_per_pass} units of a pass,"
            f" median over {len(timed)} passes")
    log(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}; digest "
        + ("matches stored" if stored else "consistent across passes" if correct else "MISMATCH"))
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    log(f"record written to {os.path.relpath(path, root)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
