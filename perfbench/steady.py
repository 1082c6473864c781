"""Steadiness and parent-vs-change comparison for the serve benchmark.

    python3 perfbench/steady.py steady --runs 10
    python3 perfbench/steady.py collect --runs 10 --seed0 500 --out change.jsonl
    python3 perfbench/steady.py report results.jsonl
    python3 perfbench/steady.py compare parent.jsonl change.jsonl

Every run uses the workloads and the run length of BENCHMARK.json.
`steady` runs every workload in two sets, back to back; inside a set the
workloads are interleaved, one run each in turn, each run on its own seed.
It prints, per (workload, metric), each set's median, quartiles and
IQR/median, and the set-to-set median gap, against the metric's bound in
BENCHMARK.json; it is steady only when no spread and no gap, in either
direction, exceeds its bound, setup_s included, and every run is correct
with no failed operation. `collect` makes one set (run it on the parent
and on the change, alternating which goes first); `compare` pairs the runs
and calls a gain only on 9/10 pair wins with a median gap beyond the
parent's IQR, a regression on a median worse than the bound, and
"unresolved" when the spread exceeds the bound. A workload whose change
runs are incorrect, or fail more operations than the parent's, is
"invalid" on every metric.
Result files hold one JSON object per run and live wherever --out says
(default under .bench_build/).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

def spec():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return bench, {m["name"]: m for m in bench["end_to_end"]}


def run_one(bench, workload, seed):
    argv = list(bench["command"]) + ["--workload", workload, "--seed",
                                     str(seed), "--seconds",
                                     str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(argv, stdout=subprocess.PIPE, check=True).stdout
    lines = out.decode().strip().splitlines()
    record = next((json.loads(l[7:]) for l in lines
                   if l.startswith("record ")), {})
    return json.loads(lines[-1]), record


def collect(bench, runs, seed0, label, out):
    with open(out, "a") as f:
        for i in range(runs):
            for w in [w["name"] for w in bench["workloads"]]:
                result, record = run_one(bench, w, seed0 + i)
                row = {"set": label, "workload": w, "seed": seed0 + i,
                       "result": result, "record": record}
                f.write(json.dumps(row) + "\n")
                f.flush()
                print("%s %s seed %d correct=%s failed=%d" % (
                    label, w, seed0 + i, result["correct"], result["failed"]),
                    file=sys.stderr, flush=True)


def load(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, base, value):
    """Share by which `value` is worse than `base`, for the metric's sense."""
    change = (value - base) / base
    return change if metric["better"] == "lower" else -change


def series(rows, label=None):
    out = {}
    for r in rows:
        if label is not None and r["set"] != label:
            continue
        for name, m in r["result"]["metrics"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def outcomes(rows):
    """Per workload: [runs, incorrect runs, failed operations]."""
    out = {}
    for r in rows:
        o = out.setdefault(r["workload"], [0, 0, 0])
        o[0] += 1
        o[1] += not r["result"]["correct"]
        o[2] += r["result"]["failed"]
    return out


def report(rows):
    _, metrics = spec()
    labels = sorted({r["set"] for r in rows})
    bad = 0
    incorrect = sum(not r["result"]["correct"] for r in rows)
    failed = sum(r["result"]["failed"] for r in rows)
    print("runs %d, incorrect %d, failed operations %d" % (
        len(rows), incorrect, failed))
    sets = [series(rows, l) for l in labels]
    print("%-12s %-20s %7s | %s | %s" % (
        "workload", "metric", "bound",
        " | ".join("set %s median [q1, q3] iqr/med" % l for l in labels),
        "gap"))
    for key in sorted(sets[0]):
        m = metrics[key[1]]
        cells, meds = [], []
        for s in sets:
            if key not in s:  # a set still being collected
                continue
            q1, q2, q3 = quartiles(s[key])
            spread = (q3 - q1) / q2
            meds.append(q2)
            flag = "" if spread <= m["bound"] / 3 else (
                " ~" if spread <= m["bound"] else " !")
            if spread > m["bound"]:
                bad += 1
            cells.append("%10.4g [%.4g, %.4g] %5.1f%%%s" % (
                q2, q1, q3, 100 * spread, flag))
        gap = worse_by(m, meds[0], meds[-1]) if len(meds) > 1 else 0.0
        if abs(gap) > m["bound"]:
            bad += 1
        print("%-12s %-20s %6.0f%% | %s | %+5.1f%%%s" % (
            key[0], key[1], 100 * m["bound"], " | ".join(cells), 100 * gap,
            " !" if abs(gap) > m["bound"] else ""))
    digests = {}
    for r in rows:
        digests.setdefault((r["workload"], r["seed"]), set()).add(
            r["record"].get("answer_digest"))
    unstable = [k for k, d in digests.items() if len(d) > 1]
    print("spread flags: ' ~' above a third of the bound, ' !' above it;"
          " gap: worse (+) or better (-) in set %s, ' !' beyond the bound"
          % labels[-1])
    print("answer digests differing for the same seed: %s" % (unstable or
                                                              "none"))
    print("verdict: %s" % ("STEADY" if bad == 0 and failed == 0 and
                           incorrect == 0 else
                           "NOT STEADY (%d over bound)" % bad))


def compare(parent_rows, change_rows):
    _, metrics = spec()
    parent, change = series(parent_rows), series(change_rows)
    parent_out, change_out = outcomes(parent_rows), outcomes(change_rows)
    invalid = set()
    for w in sorted(parent_out):
        p, c = parent_out[w], change_out.get(w, [0, 0, 0])
        print("%-12s parent %d runs, %d incorrect, %d failed operations;"
              " change %d runs, %d incorrect, %d failed operations"
              % (w, p[0], p[1], p[2], c[0], c[1], c[2]))
        if c[1] or c[2] > p[2]:
            invalid.add(w)
    for key in sorted(parent):
        m = metrics[key[1]]
        p, c = parent[key], change.get(key, [])
        if not c:
            print("%-12s %-20s missing in change" % key)
            continue
        pairs = list(zip(p, c))
        sign = -1 if m["better"] == "lower" else 1
        wins = sum(sign * (b - a) > 0 for a, b in pairs)
        p1, pm, p3 = quartiles(p)
        c1, cm, c3 = quartiles(c)
        spread = max((p3 - p1) / pm, (c3 - c1) / cm)
        gap = worse_by(m, pm, cm)
        if key[0] in invalid:
            verdict = "invalid (change runs incorrect or failing more)"
        elif wins >= 0.9 * len(pairs) and sign * (cm - pm) > (p3 - p1):
            verdict = "GAIN (%d/%d pair wins)" % (wins, len(pairs))
        elif spread > m["bound"] and not all(
                sign * (b - a) > 0 for a in p for b in c):
            verdict = "unresolved (spread %.1f%% > bound)" % (100 * spread)
        elif gap > m["bound"]:
            verdict = "REGRESSION (%.1f%% worse)" % (100 * gap)
        else:
            verdict = "no change beyond the bound"
        print("%-12s %-20s parent %.4g [%.4g, %.4g] change %.4g [%.4g, %.4g]"
              " %+.1f%% %s" % (key[0], key[1], pm, p1, p3, cm, c1, c3,
                               -100 * gap, verdict))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    for mode in ("steady", "collect"):
        p = sub.add_parser(mode)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seed0", type=int, default=1000)
        p.add_argument("--out", default=os.path.join(".bench_build",
                                                     mode + ".jsonl"))
    sub.add_parser("report").add_argument("results")
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    args = ap.parse_args()
    if args.mode == "report":
        report(load(args.results))
        return
    if args.mode == "compare":
        compare(load(args.parent), load(args.change))
        return
    bench, _ = spec()
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    if args.mode == "collect":
        collect(bench, args.runs, args.seed0, "A", args.out)
        report(load(args.out))
        return
    if os.path.exists(args.out):
        os.unlink(args.out)
    collect(bench, args.runs, args.seed0, "A", args.out)
    collect(bench, args.runs, args.seed0 + args.runs, "B", args.out)
    report(load(args.out))


if __name__ == "__main__":
    main()
