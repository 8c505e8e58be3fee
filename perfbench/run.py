#!/usr/bin/env python3
"""Campaign benchmark for the simulated DSAV scan.

Builds the repository's libraries plus the perfbench/campaign binary from
source (RelWithDebInfo, the top-level project's default) under
.bench_build/, then repeats sharded campaigns of one workload for --seconds
seconds and prints one JSON result as the last line of standard output.

    python3 perfbench/run.py --workload poison --seed 1 --seconds 50 --trace 0

Each repetition is a fresh process, so peak RSS is per campaign. A run
derives WORLDS world seeds from --seed and cycles its repetitions through
them, one round of worlds per shard layout, the two LAYOUTS alternating. A
run makes at least two rounds, so every world runs under both layouts and
proves the repository's invariance contract (results_digest is identical
for any shard/thread layout). Each metric is the median over all the run's
repetitions.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(phase times and per-layer counters of the same campaigns, plus a DNS-codec
span the campaign binary measures around calls into the dns layer).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("poison", "transport")

# (shards, threads): campaign_scale's defaults on a 4-core machine (64
# shards, half the cores as threads), and one shard fewer. One shard changes
# which ASes share a shard everywhere while the cost stays the same, so
# repetitions of both layouts are measured alike.
LAYOUTS = ((64, 2), (63, 2))
# Worlds per run, seeded --seed*WORLDS+i. A world's cost per probe and its
# memory hinge on which of its largest ASes filter spoofed traffic, so a
# single world lets one seed's draw move every metric by 15%.
WORLDS = 8


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    return args


def build():
    """Configures (once) and builds the campaign binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src")
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                        build_dir, *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return build_dir


def campaign(binary, spill_dir, workload, seed, shards, threads, codec):
    """Runs one campaign; returns its measurement dict, or None on failure."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--shards", str(shards), "--threads", str(threads),
           "--spill-dir", spill_dir]
    if codec:
        cmd.append("--codec")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"perfbench: campaign exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def plane_ran(workload, rep):
    """The workload's own scan plane did its work."""
    if workload == "poison":
        return rep["poison_forged"] > 0 and rep["poison_triggers"] > 0
    return rep["tcp_reuses"] > 0


def check(workload, rep, first, first_in_layout):
    """A repetition is correct when the network conserved packets, the scan
    reached targets, its evidence equals the world's first repetition's
    (results_digest is layout-invariant), and its TCP reply digests equal
    those of the world's first repetition in the same layout. The reply
    digests can differ between shard layouts (follow-up timing keys off
    first-hit arrival, which shard-local cache warmth perturbs)."""
    return (rep["conserved"] and rep["records"] > 0
            and plane_ran(workload, rep)
            and all(rep[k] == first[k]
                    for k in ("digest", "probes", "records"))
            and rep["replies_digest"] == first_in_layout["replies_digest"])


def end_to_end(reps):
    def m(f):
        return statistics.median(f(r) for r in reps)

    return {
        "probes_per_s": (m(lambda r: r["probes"] / r["wall_ms"] * 1000.0),
                         "1/s"),
        "cpu_us_per_probe": (m(lambda r: r["cpu_ms"] * 1000.0 / r["probes"]),
                             "us"),
        "peak_rss_mib": (m(lambda r: r["peak_rss_kib"] / 1024.0), "MiB"),
        # World generation summed over the shards (ShardTiming::gen_ms).
        "setup_s": (m(lambda r: r["gen_ms"] / 1000.0), "s"),
    }


def per_layer(reps):
    def m(f):
        return statistics.median(f(r) for r in reps)

    def ratio(num, den):
        return m(lambda r: r[num] / r[den])

    return {
        # core runner: where the campaign's wall time went, per phase.
        "run_us_per_probe": (m(lambda r: r["run_ms"] * 1000.0 / r["probes"]),
                             "us"),
        "spill_ms": (m(lambda r: r["spill_ms"]), "ms"),
        "merge_ms": (m(lambda r: r["merge_ms"]), "ms"),
        "shard_imbalance": (m(lambda r: r["max_run_ms"] * r["shards"]
                              / r["run_ms"]), "ratio"),
        "parallel_speedup": (m(lambda r: (r["gen_ms"] + r["run_ms"])
                               / r["wall_ms"]), "ratio"),
        # dns: the campaign binary's own span around query encode/decode.
        "codec_encode_ns": (m(lambda r: r["codec_encode_ns"]), "ns"),
        "codec_decode_ns": (m(lambda r: r["codec_decode_ns"]), "ns"),
        # sim network and event core: packets per probe, batching.
        "packets_per_probe": (ratio("net_sent", "probes"), "ratio"),
        "delivered_per_batch": (ratio("net_delivered", "net_batches"),
                                "ratio"),
        # scanner collector: auth log entries it attributes per probe.
        "auth_entries_per_probe": (ratio("auth_entries", "queries_sent"),
                                   "ratio"),
        # sim transport: connection economics of the follow-up battery.
        "tcp_dials": (m(lambda r: r["tcp_dials"]), "count"),
        "tcp_reuses_per_dial": (ratio("tcp_reuses", "tcp_dials"), "ratio"),
    }


def main():
    args = parse_args()
    build_dir = build()
    binary = os.path.join(build_dir, "campaign")
    spill_dir = os.path.join(build_dir, f"spill-{os.getpid()}")
    codec = args.trace == 1
    seeds = [args.seed * WORLDS + i for i in range(WORLDS)]
    # first[(world, layout)]: that pair's first repetition.
    reps, first = [], {}
    attempted = failed = 0
    start = time.monotonic()
    try:
        while (attempted < len(LAYOUTS) * WORLDS
               or time.monotonic() - start < args.seconds):
            world = attempted % WORLDS
            layout = attempted // WORLDS % len(LAYOUTS)
            shards, threads = LAYOUTS[layout]
            rep = campaign(binary, spill_dir, args.workload, seeds[world],
                           shards, threads, codec)
            attempted += 1
            if rep is None:
                failed += 1
                break
            rep["world"], rep["shards"] = world, shards
            first.setdefault((world, layout), rep)
            if check(args.workload, rep, first[(world, 0)],
                     first[(world, layout)]):
                reps.append(rep)
            else:
                failed += 1
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
    if not reps:
        fail("no campaign completed")

    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    for world, seed in enumerate(seeds):
        if (world, 0) in first:
            ref = first[(world, 0)]
            print(f"perfbench: {args.workload} world {seed}: "
                  f"{sum(r['world'] == world for r in reps)} campaigns of "
                  f"{ref['probes']} probes, digest {ref['digest']}",
                  file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
