#!/usr/bin/env python3
"""A/B verdicts for dsebench: a base revision against the working tree.

Alternating pairs of dsebench runs, one verdict per end-to-end metric.

    python3 tools/bench_ab.py --base <rev> [--workloads new_app,rerank]
                              [--seeds 201-210] [--pairs 1]
                              [--work-dir .bench_ab] [--claim <workload>:<metric>]
    python3 tools/bench_ab.py --self-check

It compares the checkout it sits in. The base revision is checked out with
`git worktree` under the work directory and removed again at the end. Each
side builds into its own CARGO_TARGET_DIR under the work directory through
its own dsebench/run.py, the benchmark's entry point, and every run lasts
BENCHMARK.json's run_seconds; build output goes to <work-dir>/<side>.log.
For every workload and seed it runs N pairs, alternating which side goes
first, then prints for each end-to-end metric of BENCHMARK.json each side's
median and quartiles, the change's delta, the pairs the change won, and a
verdict:

  gain        over at least 10 pairs, the change won at least 9 of every 10
              and its median lies beyond the base's interquartile range, on
              the better side;
  unresolved  not a gain, the base's interquartile range is wider than the
              metric's bound (relative to the base's median), and some change
              run reads no better than some base run: the runs spread too
              widely to tell a regression from noise;
  worse       the change's median is worse than the base's by more than the
              metric's bound;
  within      none of these.

The overall verdict is FAIL when the two runs of a pair print different
`# digest` lines, any run reports `correct: false`, the change fails a
larger share of operations than the base, any metric is `worse`, or a
--claim'ed metric is not a `gain`; otherwise it is `unresolved` when any
metric is, and `pass` when none is. It exits 0 only on `pass`. The last line
is a one-paragraph summary for a change log.
--self-check feeds canned samples through the verdict rule and the output
parser instead of running anything.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["new_app", "node_wall", "rerank", "validate_front"]


# ------------------------------------------------------------- statistics ---

def quartiles(xs):
    """(q1, median, q3) of the samples, linearly interpolated."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(base, change, better, bound):
    """Compares per-pair samples (base[i] and change[i] ran as pair i)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (c - b) > 0: worse
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    if b_med:
        delta = (c_med - b_med) / abs(b_med)
    else:
        delta = 0.0 if c_med == b_med else math.copysign(math.inf, c_med - b_med)
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else (
        0.0 if b_q3 == b_q1 else math.inf)
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    if (len(base) >= 10 and 10 * wins >= 9 * len(base)
            and sign * (c_med - b_med) < 0
            and abs(c_med - b_med) > b_q3 - b_q1):
        word = "gain"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif sign * delta > bound:
        word = "worse"
    else:
        word = "within"
    return {"base": (b_q1, b_med, b_q3), "change": (c_q1, c_med, c_q3),
            "delta": delta, "wins": wins, "pairs": len(base), "verdict": word}


# ----------------------------------------------------------------- runner ---

def parse_run(stdout):
    """The JSON result (last line) and the `# digest` lines of one run."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("dsebench printed nothing")
    result = json.loads(lines[-1])
    return {
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        "correct": bool(result.get("correct")),
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        "digests": [l for l in lines if l.startswith("# digest ")],
        "host": next((l for l in lines if l.startswith("# host ")), ""),
    }


def drop_foreign_build(target, tree):
    """Deletes <target> when its build was configured from another tree.

    dsebench/run.py configures <target>/dsebench only while it has no Makefile,
    so a build left there by another base (or another checkout sharing the
    work directory) would otherwise be rebuilt from, and timed as, that tree.
    """
    cache = os.path.join(target, "dsebench", "CMakeCache.txt")
    if not os.path.exists(cache):
        return
    with open(cache) as f:
        source = next((l.split("=", 1)[1].strip() for l in f
                       if l.startswith("CMAKE_HOME_DIRECTORY:")), "")
    if os.path.realpath(source) != os.path.realpath(os.path.join(tree, "dsebench")):
        shutil.rmtree(target)


def run_dsebench(tree, target, log, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    with open(log, "a") as err:
        proc = subprocess.run(
            [sys.executable, os.path.join("dsebench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", repr(seconds), "--trace", "0"],
            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
    try:
        return parse_run(proc.stdout)
    except ValueError as e:
        sys.exit("bench_ab: %s %s seed %d: no result (exit %d, see %s): %s"
                 % (tree, workload, seed, proc.returncode, log, e))


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def fmt(x):
    return "%.0f" % x if abs(x) >= 1000 else "%.4g" % x


def compare(args, bench, base_tree, base_label):
    work = os.path.abspath(args.work_dir)
    sides = {
        "base": (base_tree, os.path.join(work, "target-base"),
                 os.path.join(work, "base.log")),
        "change": (ROOT, os.path.join(work, "target-change"),
                   os.path.join(work, "change.log")),
    }
    metrics = bench["end_to_end"]
    for tree, target, _ in sides.values():
        drop_foreign_build(target, tree)
    claims = set(args.claim)
    ok = True
    unresolved = []
    host = ""
    summary = []
    flip = False
    for workload in args.workloads:
        runs = {"base": [], "change": []}
        digests_equal = 0
        for seed in args.seeds:
            for _ in range(args.pairs):
                order = ["change", "base"] if flip else ["base", "change"]
                flip = not flip
                got = {}
                for side in order:
                    got[side] = run_dsebench(*sides[side], workload, seed,
                                             args.seconds)
                    host = host or got[side]["host"]
                    print("  %s seed %d %-6s sweep_ms_p50 %s  correct %s"
                          % (workload, seed, side,
                             fmt(got[side]["metrics"].get("sweep_ms_p50", 0)),
                             got[side]["correct"]), file=sys.stderr, flush=True)
                if got["base"]["digests"] == got["change"]["digests"]:
                    digests_equal += 1
                else:
                    ok = False
                    print("DIGEST DIFFERS: %s seed %d\n  base   %s\n  change %s"
                          % (workload, seed, got["base"]["digests"],
                             got["change"]["digests"]))
                for side in runs:
                    runs[side].append(got[side])
        n = len(runs["base"])
        correct = sum(r["correct"] for side in runs for r in runs[side])
        failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
        attempted = {s: sum(r["attempted"] for r in runs[s]) for s in runs}
        share = {s: failed[s] / attempted[s] if attempted[s] else 0.0
                 for s in runs}
        if correct != 2 * n or share["change"] > share["base"]:
            ok = False
        print("%s: %d pairs, digests equal %d/%d, correct %d/%d, failed %d/%d "
              "(base) %d/%d (change)"
              % (workload, n, digests_equal, n, correct, 2 * n, failed["base"],
                 attempted["base"], failed["change"], attempted["change"]))
        print("  %-20s %-28s %-28s %8s %6s %6s  %s"
              % ("metric", "base median [q1, q3]", "change median [q1, q3]",
                 "delta", "wins", "bound", "verdict"))
        parts = ["%s: digests equal %d/%d, failed %d/%d" % (
            workload, digests_equal, n, failed["change"], attempted["change"])]
        for m in metrics:
            name = m["name"]
            v = verdict([r["metrics"][name] for r in runs["base"]],
                        [r["metrics"][name] for r in runs["change"]],
                        m["better"], m["bound"])
            claimed = (workload + ":" + name) in claims
            word = v["verdict"]
            if word == "worse" or (claimed and word != "gain"):
                ok = False
            if word == "unresolved":
                unresolved.append(workload + ":" + name)
            if claimed:
                word += " (claimed)" if word == "gain" else " (CLAIM NOT SHOWN)"
            b, c = v["base"], v["change"]
            print("  %-20s %-28s %-28s %+7.1f%% %6s %5.0f%%  %s"
                  % (name, "%s [%s, %s]" % (fmt(b[1]), fmt(b[0]), fmt(b[2])),
                     "%s [%s, %s]" % (fmt(c[1]), fmt(c[0]), fmt(c[2])),
                     100 * v["delta"], "%d/%d" % (v["wins"], n),
                     100 * m["bound"], word))
            parts.append("%s %s [%s, %s] -> %s [%s, %s] %s (%+.1f%%, %d/%d wins, %s)"
                         % (name, fmt(b[1]), fmt(b[0]), fmt(b[2]), fmt(c[1]),
                            fmt(c[0]), fmt(c[2]), m["unit"], 100 * v["delta"],
                            v["wins"], n, word))
        summary.append("; ".join(parts))
    overall = ("FAIL" if not ok else
               "unresolved (%s)" % ", ".join(unresolved) if unresolved else
               "pass")
    print(host)
    print("summary: bench_ab %s vs the working tree, %d pair(s) per seed, "
          "seeds %s, %s s; %s. Verdict: %s."
          % (base_label, args.pairs, args.seeds_text, fmt(args.seconds),
             " | ".join(summary), overall))
    return overall == "pass"


# ------------------------------------------------------------- self-check ---

def self_check():
    """Canned samples through verdict() and parse_run(); exits 1 on a miss."""
    base = [44.0, 42.1, 45.7, 43.0, 46.2, 41.9, 44.8, 42.5, 45.1, 43.6]
    cases = [
        ("clear gain", base, [25.8, 24.7, 27.1, 25.0, 26.3, 24.9, 26.0, 25.5,
                              27.4, 25.2], "lower", 0.25, "gain"),
        ("8 of 10 wins", base, [25.0] * 8 + [50.0, 50.0], "lower", 0.25,
         "within"),
        ("gap inside base IQR", base, [x - 0.3 for x in base], "lower", 0.25,
         "within"),
        ("worse beyond bound", base, [x * 1.3 for x in base], "lower", 0.25,
         "worse"),
        ("worse within bound", base, [x * 1.1 for x in base], "lower", 0.25,
         "within"),
        ("higher is better gain", [100.0 + i for i in range(10)],
         [200.0 + i for i in range(10)], "higher", 0.25, "gain"),
        ("higher is better worse", [100.0 + i for i in range(10)],
         [60.0 + i for i in range(10)], "higher", 0.25, "worse"),
        ("single pair", [10.0], [5.0], "lower", 0.25, "within"),
        # Base IQR [10.18, 13.05] is 25.7% of its 11.16 median: wider than
        # the bound, so a +17% median cannot be told from noise.
        ("base spread beyond bound",
         [10.18, 13.05, 9.8, 11.16, 14.0, 10.18, 13.3, 11.16, 13.05, 10.0],
         [13.03, 12.6, 13.58, 11.67, 13.4, 13.1, 12.5, 13.9, 12.9, 13.2],
         "lower", 0.25, "unresolved"),
        ("base spread beyond bound, worse beyond bound",
         [8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0],
         [x * 1.4 for x in range(8, 18)], "lower", 0.25, "unresolved"),
        ("base spread beyond bound, every change run better",
         [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 16.0, 17.0, 18.0, 19.0],
         [9.9] * 10, "lower", 0.25, "within"),
    ]
    bad = 0
    for name, b, c, better, bound, want in cases:
        got = verdict(b, c, better, bound)["verdict"]
        if got != want:
            bad += 1
            print("self-check: %s: verdict %s, want %s" % (name, got, want))
    if verdict(base, [25.0] * 10, "lower", 0.25)["wins"] != 10:
        bad += 1
        print("self-check: wins miscounted")
    canned = ("build noise\n# host {\"nproc\": 4}\n"
              "# digest validate_front seed 3 sweeps 3..302: 00ff\n"
              '{"correct": false, "attempted": 300, "failed": 2, "metrics": '
              '{"sweep_ms_p50": {"value": 25.5, "unit": "ms"}}}\n')
    run = parse_run(canned)
    if (run["correct"] or run["failed"] != 2 or run["attempted"] != 300
            or run["metrics"] != {"sweep_ms_p50": 25.5}
            or run["digests"] != ["# digest validate_front seed 3 sweeps 3..302: 00ff"]):
        bad += 1
        print("self-check: parse_run misread %r" % run)
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "target")
        for source, kept in ((os.path.join(tmp, "tree", "dsebench"), True),
                             (os.path.join(tmp, "other", "dsebench"), False)):
            os.makedirs(os.path.join(target, "dsebench"), exist_ok=True)
            with open(os.path.join(target, "dsebench", "CMakeCache.txt"), "w") as f:
                f.write("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % source)
            drop_foreign_build(target, os.path.join(tmp, "tree"))
            if os.path.exists(target) != kept:
                bad += 1
                print("self-check: build configured from %s %s" % (
                    source, "deleted" if kept else "kept"))
    total = len(cases) + 4
    print("self-check: %d/%d passed" % (total - bad, total))
    return bad == 0


# ------------------------------------------------------------------- main ---

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--self-check", action="store_true",
                        help="check the verdict rule on canned samples")
    parser.add_argument("--base", help="base revision, checked out with git worktree")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="201-210", help="e.g. 201-210 or 1,4,9")
    parser.add_argument("--pairs", type=int, default=1, help="pairs per workload and seed")
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".bench_ab"),
                        help="base worktree, per-side builds and logs")
    parser.add_argument("--claim", action="append", default=[],
                        help="<workload>:<metric> that must read 'gain'")
    args = parser.parse_args()
    if args.self_check:
        sys.exit(0 if self_check() else 1)
    if not args.base:
        parser.error("--base is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    args.workloads = args.workloads.split(",")
    for w in args.workloads:
        if w not in WORKLOADS:
            parser.error("unknown workload " + w)
    args.seeds_text = args.seeds
    args.seeds = parse_seeds(args.seeds)
    args.seconds = float(bench["run_seconds"])
    os.makedirs(args.work_dir, exist_ok=True)

    sha = git("rev-parse", "--verify", args.base + "^{commit}")
    tree = os.path.join(os.path.abspath(args.work_dir), "base-" + sha[:12])
    if not os.path.isdir(tree):
        git("worktree", "add", "--detach", tree, sha)
    try:
        ok = compare(args, bench, tree, sha[:12])
    finally:
        git("worktree", "remove", "--force", tree)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
