#!/usr/bin/env python3
"""Self-checks of the uteperf benchmark (see LAYERS.md).

    python3 perfbench/selfcheck.py counts  [--workloads batch,query,live]
        Runs each workload's traced run twice with one seed and asserts
        that every exact count (bytes per record, frames, allocations,
        cache hits on the fixed replay, ...) repeats exactly.

    python3 perfbench/selfcheck.py heldout [--workloads ...]
        Runs each workload on the default seed and on the held-out seed
        (seeds.json) and checks that every end-to-end metric of the
        held-out run is within the metric's BENCHMARK.json bound of the
        default run.

    python3 perfbench/selfcheck.py spread --seeds 1,2,3,4,5 [--workloads ...]
            [--save FILE] [--against FILE]
        Runs each workload once per seed and prints, per end-to-end
        metric, the median and the interquartile range as a share of the
        median. It fails when a spread reaches a third of the metric's
        bound, except for the metrics in SPREAD_NOT_GATED (setup_s),
        whose spread is printed with the reason. --save writes the
        medians to FILE; --against compares them with the medians an
        earlier spread saved and fails when a median got worse by more
        than the bound (every metric, setup_s too).

Exits non-zero when a check fails. Runs are sequential: they measure.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are exact counts for one seed (the rest are
# timings or depend on thread interleaving).
EXACT_COUNTS = {
    "batch": ["convert.allocs_per_event", "convert.bytes_per_record",
              "merge.allocs_per_record", "slog.frames",
              "support.io_bytes_per_record"],
    "query": ["cache.hit_ratio", "cache.evictions_per_request",
              "process.allocs_per_request"],
    "live": ["slog.frames", "ingest.wire_bytes_per_record"],
}
# End-to-end metrics whose spread over seeds is printed but does not fail
# `spread`, and why. Their medians are still held to the bound by
# --against.
SPREAD_NOT_GATED = {
    "setup_s": "set-up time follows the host's speed from run to run; "
               "BENCHMARK.json bounds only how far its median may move",
}
# End-to-end metrics that are exact counts for one seed.
EXACT_END_TO_END = ["slog_bytes_per_record", "allocs_per_op"]


def load_json(name):
    with open(os.path.join(ROOT if name == "BENCHMARK.json" else HERE, name)) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {r.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_counts(workloads, seed, seconds):
    ok = True
    for w in workloads:
        a = run(w, seed, seconds, 1)
        b = run(w, seed, seconds, 1)
        for name in EXACT_COUNTS[w]:
            same = a[name] == b[name]
            ok &= same
            print(f"{w:6} {name:34} {a[name]!r:>24} {b[name]!r:>24} "
                  f"{'same' if same else 'DIFFERS'}")
        a0 = run(w, seed, seconds, 0)
        b0 = run(w, seed, seconds, 0)
        for name in EXACT_END_TO_END:
            same = a0[name] == b0[name]
            ok &= same
            print(f"{w:6} {name:34} {a0[name]!r:>24} {b0[name]!r:>24} "
                  f"{'same' if same else 'DIFFERS'}")
    return ok


def check_heldout(workloads, seconds, bench, seeds):
    ok = True
    for w in workloads:
        base = run(w, seeds["default"], seconds, 0)
        held = run(w, seeds["held_out"], seconds, 0)
        for m in bench["end_to_end"]:
            name = m["name"]
            worse = (held[name] - base[name]) / base[name]
            if m["better"] == "higher":
                worse = -worse
            within = worse <= m["bound"]
            ok &= within
            print(f"{w:6} {name:24} default {base[name]:14.6g} held-out "
                  f"{held[name]:14.6g} worse by {worse:+7.3f} (bound "
                  f"{m['bound']}) {'ok' if within else 'OUT OF BOUND'}")
    return ok


def spread(workloads, seconds, bench, seeds, save, against):
    ok = True
    medians = {}
    before = {}
    if against:
        with open(against) as f:
            before = json.load(f)
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for s in seeds:
            got = run(w, s, seconds, 0)
            for name in values:
                values[name].append(got[name])
            print(f"{w} seed {s}: " + " ".join(
                f"{k}={got[k]:.6g}" for k in values), flush=True)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            medians[f"{w}.{m['name']}"] = med
            q = statistics.quantiles(v, n=4)
            share = (q[2] - q[0]) / med
            target = m["bound"] / 3
            good = share < target
            verdict = "ok" if good else "WIDE"
            if m["name"] in SPREAD_NOT_GATED:
                good = True
                verdict += ", not gated: " + SPREAD_NOT_GATED[m["name"]]
            ok &= good
            line = (f"{w:6} {m['name']:24} median {med:14.6g} IQR/median "
                    f"{share:7.4f} (bound {m['bound']}, aim < {target:.4f}) "
                    f"{verdict}")
            old = before.get(f"{w}.{m['name']}")
            if old is not None:
                worse = (med - old) / old
                if m["better"] == "higher":
                    worse = -worse
                within = worse <= m["bound"]
                ok &= within
                line += (f"; vs earlier {old:.6g}: worse by {worse:+.4f} "
                         f"{'ok' if within else 'OUT OF BOUND'}")
            print(line, flush=True)
    if save:
        with open(save, "w") as f:
            json.dump(medians, f, indent=1)
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("check", choices=("counts", "heldout", "spread"))
    p.add_argument("--workloads", default="")
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--save", default="")
    p.add_argument("--against", default="")
    args = p.parse_args()
    bench = load_json("BENCHMARK.json")
    seeds = load_json("seeds.json")
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    if args.check == "counts":
        ok = check_counts(workloads, seeds["default"], min(seconds, 8))
    elif args.check == "heldout":
        ok = check_heldout(workloads, seconds, bench, seeds)
    else:
        ok = spread(workloads, seconds, bench,
                    [int(s) for s in args.seeds.split(",")], args.save,
                    args.against)
    print("selfcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
