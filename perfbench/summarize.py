"""Summarise the result files of several runs (``run.py --out DIR``).

    python3 perfbench/summarize.py DIR [--json OUT]

For every workload and trace mode: each metric's median over the runs, its
quartiles, and the spread (Q3 - Q1) / median, with quartiles taken as
``statistics.quantiles(values, n=4)`` gives them; then each instance's median
time in reference and in wall seconds.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics


def summarize(directory):
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace[01].json"))):
        with open(path) as fh:
            run = json.load(fh)
        env = run["environment"]
        groups.setdefault((env["workload"], env["trace"]), []).append(run)
    out = {}
    for (workload, trace), runs in sorted(groups.items()):
        env = runs[0]["environment"]
        entry = {
            "runs": len(runs),
            "seeds": sorted(r["environment"]["seed"] for r in runs),
            "environment": {k: env[k] for k in (
                "python", "implementation", "platform", "cpu", "nproc",
                "git_commit", "pencil_pool_seed", "seconds")},
            "failed": sum(r["extra"]["failed_share"] > 0 for r in runs),
            "metrics": {}, "wall_metrics": {}, "instances": {},
        }
        for key in ("metrics", "wall_metrics"):
            for name in runs[0][key]:
                values = [r[key][name]["value"] for r in runs]
                entry[key][name] = _stats(values, runs[0][key][name]["unit"])
        times = {}
        for r in runs:
            for rec in r["records"]:
                if rec["ref_s"]:
                    t = times.setdefault(rec["name"], ([], []))
                    t[0].append(statistics.median(rec["ref_s"]))
                    t[1].append(statistics.median(rec["wall_s"]))
        entry["instances"] = {
            name: {"ref_s": statistics.median(ref),
                   "wall_s": statistics.median(wall)}
            for name, (ref, wall) in sorted(times.items())}
        out["%s trace=%d" % (workload, trace)] = entry
    return out


def _stats(values, unit):
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("directory")
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()
    summary = summarize(args.directory)
    for group, entry in summary.items():
        print("== %s: %d runs, seeds %s, %d with failures" % (
            group, entry["runs"], entry["seeds"], entry["failed"]))
        for name, s in entry["metrics"].items():
            wall = entry["wall_metrics"][name]
            print("  %-42s median %12.6g %-5s spread %6.4f  "
                  "(wall median %.6g, spread %.4f)" % (
                      name, s["median"], s["unit"], s["spread"],
                      wall["median"], wall["spread"]))
    if args.json:
        text = json.dumps(summary, indent=1, sort_keys=True)
        # one line per innermost object keeps the file short to read
        text = re.sub(r"\{\n\s+([^{}\[\]]*?)\n\s+\}",
                      lambda m: "{" + " ".join(m.group(1).split()) + "}", text)
        with open(args.json, "w") as fh:
            fh.write(text + "\n")


if __name__ == "__main__":
    main()
