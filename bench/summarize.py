"""Summarize result records written by bench/run.py.

    python3 bench/summarize.py bench/out/*.json > summary.json

Groups the records by workload and gives, for every metric of the
untraced runs, the median, the quartiles (statistics.quantiles, n=4),
the spread (quartile distance over the median) and the values by seed.
Traced runs contribute their per-layer counters.  The environment of
the first record (commit, machine, nproc, versions, held-out seed) is
copied once.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(records: list[dict]) -> dict:
    out: dict = {"environment": records[0]["environment"], "workloads": {}}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w = out["workloads"].setdefault(rec["workload"], {"runs": 0, "failed_ops": 0,
                                                           "metrics": {}, "traced": {}})
        w["runs"] += 1
        w["failed_ops"] += rec["failed"]
        if rec["trace"]:
            w["traced"][str(rec["seed"])] = {k: m["value"] for k, m in rec["all_metrics"].items()}
            continue
        for name, m in rec["all_metrics"].items():
            entry = w["metrics"].setdefault(name, {"unit": m["unit"], "by_seed": {}})
            entry["by_seed"][str(rec["seed"])] = m["value"]
    for w in out["workloads"].values():
        for entry in w["metrics"].values():
            values = list(entry["by_seed"].values())
            entry["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry["q1"], entry["q3"] = q1, q3
                entry["spread"] = (q3 - q1) / entry["median"] if entry["median"] else None
    return out


def main(paths: list[str]) -> int:
    records = []
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        if "workload" in rec:  # skips digests.json
            records.append(rec)
    if not records:
        print("no result records given", file=sys.stderr)
        return 2
    json.dump(summarize(records), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
