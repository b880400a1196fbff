#!/usr/bin/env python3
"""Paired comparison of two revisions on the end-to-end benchmark.

Usage (from anywhere inside the repository):

    python3 scripts/bench_pairs.py --workload prefill_long --seeds 11-20 \\
        [--base HEAD~1] [--change HEAD] [--seconds 50] [--trace 0] \\
        [--claim prefill_tok_s] [--scratch DIR]

Each revision is exported with `git archive` into its own directory under
--scratch (default: .bench_pairs/ at the repository root), named by commit,
so a second invocation reuses the exports and their incremental builds.
--change WORKTREE compares the working tree's tracked files (staged or not;
`git stash create`, which leaves the tree and the stash list untouched).

One uncounted warm-up run per side builds its tree. Then pair i runs
`sabench/run.py` once per side with the i-th seed: the base first in odd
pairs, the change first in even ones, so a drift of the host's load over
the session falls on both sides alike.

For every metric the runs report, it prints the median and quartiles of
each side and the pairs the change wins (strictly better, per BENCHMARK.json's
`better`). Verdicts:

  * the --claim metric passes when the change wins at least 9 of every 10
    pairs and its median beats the base median by more than the base's
    interquartile range;
  * every other end-to-end metric passes unless the change's median is
    worse than the base's by more than the metric's BENCHMARK.json bound,
    read as a fraction of the base median (as an absolute difference when
    the base median is 0); a metric whose base interquartile range is wider
    than its bound is marked unresolved, unless every change run beats
    every base run;
  * the share of failed operations (failed / attempted) must not rise, and
    every run of the change must exit 0 (the base's exits are printed).

Exits 0 when every verdict passes, 1 otherwise. The raw results go to
<scratch>/pairs-<workload>.json.
"""

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1200  # a run that also builds its tree from scratch


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def resolve(rev):
    if rev == "WORKTREE":
        # A commit object of the tracked working tree; empty when it is clean.
        return git("stash", "create") or git("rev-parse", "HEAD")
    return git("rev-parse", "--verify", rev + "^{commit}")


def export(sha, scratch):
    dest = scratch / sha[:12]
    if not (dest / "sabench" / "run.py").is_file():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit(f"git archive {sha} failed")
    return dest


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "sabench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": "timeout", "result": None}
    result = None
    lines = proc.stdout.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return {"exit": proc.returncode, "result": result}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def metric_value(run, name):
    res = run["result"]
    if res is None or name not in res["metrics"]:
        return None
    return float(res["metrics"][name]["value"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 11-20 or 1,3,5-7")
    ap.add_argument("--base", default="HEAD~1")
    ap.add_argument("--change", default="HEAD", help="a revision, or WORKTREE")
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    ap.add_argument("--scratch", type=pathlib.Path, default=ROOT / ".bench_pairs")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in bounds:
        sys.exit(f"--claim {args.claim} is not an end-to-end metric of BENCHMARK.json")

    scratch = args.scratch.resolve()
    sides = {"base": resolve(args.base), "change": resolve(args.change)}
    trees = {side: export(sha, scratch) for side, sha in sides.items()}
    for side, sha in sides.items():
        print(f"{side}: {sha[:12]} -> {trees[side]}", flush=True)
        run_once(trees[side], args.workload, 0, 5, "0")  # warm-up: builds the tree

    seeds = parse_seeds(args.seeds)
    runs = {"base": [], "change": []}
    for i, seed in enumerate(seeds, start=1):
        order = ("base", "change") if i % 2 == 1 else ("change", "base")
        for side in order:
            runs[side].append(run_once(trees[side], args.workload, seed, args.seconds,
                                       args.trace))
        status = " ".join(f"{s}:exit={runs[s][-1]['exit']}" for s in ("base", "change"))
        print(f"pair {i}/{len(seeds)} seed {seed}: {status}", flush=True)

    out_path = scratch / f"pairs-{args.workload}.json"
    out_path.write_text(json.dumps({"args": {k: str(v) for k, v in vars(args).items()},
                                    "revs": sides, "seeds": seeds, "runs": runs}, indent=1))

    def cell(m, q1, q3):
        return f"{m:.6g} [{q1:.6g}, {q3:.6g}]"

    ok = True
    names = [n for n in better if any(metric_value(r, n) is not None for r in runs["base"])]
    print(f"\n{args.workload}, {len(seeds)} pairs, seeds {args.seeds}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"{'metric':28} {'base median [q1, q3]':36} {'change median [q1, q3]':36} "
          f"{'wins':>6}  verdict")
    for name in names:
        pairs = [(metric_value(b, name), metric_value(c, name))
                 for b, c in zip(runs["base"], runs["change"])]
        pairs = [(b, c) for b, c in pairs if b is not None and c is not None]
        if not pairs:
            continue
        sign = 1.0 if better[name] == "higher" else -1.0
        bs, cs = [b for b, _ in pairs], [c for _, c in pairs]
        mb, mc = statistics.median(bs), statistics.median(cs)
        (b1, b3), (c1, c3) = quartiles(bs), quartiles(cs)
        wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
        verdict = ""
        if name == args.claim:
            need = math.ceil(0.9 * len(pairs))
            passed = wins >= need and sign * (mc - mb) > (b3 - b1)
            verdict = f"claim {'PASS' if passed else 'FAIL'} (needs {need} wins, gain > IQR)"
            ok &= passed
        elif name in bounds:
            scale = abs(mb) if mb != 0 else 1.0
            passed = -sign * (mc - mb) <= bounds[name] * scale
            verdict = f"bound {bounds[name]:g} {'ok' if passed else 'WORSE'}"
            # A spread wider than the bound cannot show "no worse", unless
            # every change run beats every base run.
            if passed and b3 - b1 > bounds[name] * scale and \
                    not all(sign * (c - b) > 0 for c in cs for b in bs):
                verdict += ", unresolved (base IQR > bound)"
            ok &= passed
        print(f"{name:28} {cell(mb, b1, b3):36} {cell(mc, c1, c3):36} "
              f"{wins:>2}/{len(pairs):<3}  {verdict}")

    for side in ("base", "change"):
        att = sum(r["result"]["attempted"] for r in runs[side] if r["result"])
        fail = sum(r["result"]["failed"] for r in runs[side] if r["result"])
        bad = [r["exit"] for r in runs[side] if r["exit"] != 0]
        print(f"{side}: failed {fail}/{att} operations; non-zero exits: {bad or 'none'}")
    share = {s: (sum(r["result"]["failed"] for r in runs[s] if r["result"]) /
                 max(1, sum(r["result"]["attempted"] for r in runs[s] if r["result"])))
             for s in runs}
    ok &= share["change"] <= share["base"]
    ok &= all(r["exit"] == 0 for r in runs["change"])
    print(f"overall: {'PASS' if ok else 'FAIL'}  (raw results: {out_path})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
