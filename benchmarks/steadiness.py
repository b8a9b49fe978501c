"""Steadiness check: two sets of runs of the same code, compared per metric.

    python3 benchmarks/steadiness.py --runs 10 --traced
    python3 benchmarks/steadiness.py --runs 5 --workloads proxy-sandwich

The second form is the cheap one to use while tuning a workload.  For every
workload, set A runs seeds 1..N and set B seeds N+1..2N, one run at a time
and interleaved (A1 B1, B2 A2, A3 B3, ...), so that a slow drift of the
machine falls on both sets alike.  For each end-to-end metric it prints the
spread of each set (interquartile range over median, from
``statistics.quantiles(n=4)``), the drift of B's median from A's in the
metric's worse direction, and the metric's bound from BENCHMARK.json; a
metric passes when both spreads and the drift are within its bound.  It
also checks that the share of failed operations is identical in every run.
With ``--traced`` it adds two traced runs of the first seed per workload
and checks that their per-layer counts repeat exactly and that their output
digest equals the untraced run's; the tracing overhead it reports is the
mean time of the traced rounds in the traced runs minus that of the same
rounds in the untraced run.

Results also go to ``.bench_out/steadiness.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload, seed, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = next(json.loads(line[len("summary "):])
                   for line in proc.stderr.splitlines() if line.startswith("summary "))
    return result, summary


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def drift(first, second, better):
    m1, m2 = statistics.median(first), statistics.median(second)
    worse = (m2 - m1) if better == "lower" else (m1 - m2)
    return worse / m1 if m1 else float("inf")


def main():
    ap = argparse.ArgumentParser(description="two sets of runs, spreads against bounds")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    report = {}
    ok = True
    out = ROOT / ".bench_out" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    for wl in args.workloads:
        sets, summaries, shares = ([], []), {}, set()
        for i in range(args.runs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                seed = 1 + s * args.runs + i
                t = time.perf_counter()
                result, summary = one_run(wl, seed, 0)
                elapsed = time.perf_counter() - t
                ok &= result["correct"]
                shares.add(Fraction(result["failed"], result["attempted"]))
                sets[s].append(result)
                summaries[seed] = summary
                print(f"{wl} seed {seed}: attempted {result['attempted']} failed "
                      f"{result['failed']} rounds {summary['rounds']} "
                      f"speed factor {summary['speed_factor']:.3f} elapsed {elapsed:.1f} s",
                      flush=True)
        rows = []
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            row = {"metric": name, "bound": metric["bound"],
                   "median": [statistics.median(v) for v in vals],
                   "spread": [spread(v) for v in vals], "values": vals,
                   "drift": drift(vals[0], vals[1], metric["better"])}
            row["ok"] = max(*row["spread"], row["drift"]) <= metric["bound"]
            ok &= row["ok"]
            rows.append(row)
            sp = " ".join(f"{x:.3f}" for x in row["spread"])
            print(f"  {name:26s} median {row['median'][0]:12.4f}  spread {sp}  "
                  f"drift {row['drift']:+.3f}  bound {metric['bound']:.2f}  {'ok' if row['ok'] else 'FAIL'}")
        same_share = len(shares) == 1
        ok &= same_share
        print(f"  failed share identical in every run: {same_share} {sorted(map(str, shares))}")
        report[wl] = {"rows": rows, "failed_shares": sorted(map(str, shares)),
                      "rounds": {seed: summ["rounds"] for seed, summ in summaries.items()},
                      "speed_factor": {seed: summ["speed_factor"]
                                       for seed, summ in summaries.items()}}

        if args.traced:
            seed = 1
            traced = [one_run(wl, seed, 1) for _ in range(2)]
            counts = [{k: v["value"] for k, v in t[0]["metrics"].items()
                       if v["unit"] in ("count", "bytes", "ratio")} for t in traced]
            repeat = counts[0] == counts[1]
            digest_ok = all(t[1]["digest"] == summaries[seed]["digest"] for t in traced)
            base = summaries[seed]["traced_rounds_s"]
            overhead = statistics.fmean(t[1]["traced_rounds_s"] for t in traced) - base
            ok &= repeat and digest_ok
            print(f"  traced: counts repeat {repeat}; outputs bit-identical {digest_ok}; "
                  f"tracing overhead {overhead:+.4f} s on {base:.4f} s "
                  f"(mean of the {traced[0][1]['traced_rounds']} traced rounds)")
            report[wl]["traced"] = {"counts_repeat": repeat, "bit_identical": digest_ok,
                                    "overhead_s": overhead, "layer_metrics": traced[0][0]["metrics"]}
        out.write_text(json.dumps(report, indent=1))
    print("all ok" if ok else "NOT ok")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
