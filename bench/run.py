"""toponav benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from the root of a source checkout; the program is imported from
./src.  With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics named in BENCHMARK.json; with --trace 1 it
holds the per-layer metrics of a traced run instead.  The lines above it
list every metric with its unit and sample count.  Outputs, spans and a
result record go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
# Later claims must also hold on this seed; keep it out of tuning.
HELD_OUT_SEED = 9173


def import_program():
    """Import toponav from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "toponav", "__init__.py")):
        sys.exit(f"bench: no toponav package under {SRC}")
    sys.path.insert(0, SRC)
    import toponav
    import toponav.cli  # noqa: F401  (binds toponav.cli for the workloads)
    if not os.path.abspath(toponav.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported toponav from {toponav.__file__}, not {SRC}")
    return toponav


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "toponav")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit() -> str:
    """HEAD of the checkout when it is a git repository.  Git runs only
    then, so it looks for no repository outside the checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def environment() -> dict:
    import numpy
    import scipy
    uname = os.uname()
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "machine": f"{uname.sysname} {uname.release} {uname.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "held_out_seed": HELD_OUT_SEED,
    }


def layer_metrics(run) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics of a traced run: name -> (value, unit, n)."""
    t = run.tracer
    c = t.counts.get

    def ratio(num, den):
        return num / den if den else 0.0

    predicts, misses = t.calls("perception.predict"), t.calls("perception.true_label")
    labels = t.calls("perception.label_reachability")
    localizes = t.calls("topograph.localize")
    expands = t.calls("maintenance.expand_for_plan")
    tentative = c("expand.tentative_vertices", 0)
    out = {
        "perception.predict.calls": (predicts, "count"),
        "perception.predict.misses": (misses, "count"),
        "perception.predict.hit_ratio": (ratio(predicts - misses, predicts), "ratio"),
        "perception.label_reachability.calls": (labels, "count"),
        "perception.label_reachability.gated_ratio":
            (ratio(c("label_reachability.gated", 0), labels), "ratio"),
        "gridworld.raycast.calls": (t.calls("gridworld.raycast"), "count"),
        "gridworld.raycast_scan.calls": (t.calls("gridworld.raycast_scan"), "count"),
        "gridworld.shortest_feasible_path.calls":
            (t.calls("gridworld.shortest_feasible_path"), "count"),
        "se2.dubins_sample.calls": (t.calls("se2.dubins_sample"), "count"),
        "gridworld.step_agent.calls": (t.calls("gridworld.step_agent"), "count"),
        "gridworld.scan_cache.entries": (c("scan_cache.entries", 0), "count"),
        "topograph.localize.calls": (localizes, "count"),
        "topograph.localize.failed": (c("localize.failed", 0), "count"),
        "topograph.localize.global_scans": (c("localize.global_scans", 0), "count"),
        "topograph.localize.predicts_per_call":
            (ratio(c("localize.predicts", 0), localizes), "count/call"),
        "topograph.plan.calls": (t.calls("topograph.plan"), "count"),
        "topograph.plan.none": (c("plan.none", 0), "count"),
        "topograph.out_neighbors.calls": (t.calls("topograph.out_neighbors"), "count"),
        "topograph.build_graph.s": (t.seconds("topograph.build_graph"), "s"),
        "topograph.save_graph.s": (t.seconds("topograph.save_graph"), "s"),
        "maintenance.expand_for_plan.calls": (expands, "count"),
        "maintenance.expand_for_plan.succeeded": (c("expand.succeeded", 0), "count"),
        "maintenance.expand_for_plan.tentative_vertices": (tentative, "count"),
        "maintenance.expand_for_plan.kept_ratio":
            (ratio(c("expand.kept_vertices", 0), tentative), "ratio"),
        "topograph.remove_vertex.calls": (t.calls("topograph.remove_vertex"), "count"),
        "maintenance.apply_traversal_update.calls":
            (t.calls("maintenance.apply_traversal_update"), "count"),
        "maintenance.apply_traversal_update.pruned": (c("traversal.pruned", 0), "count"),
        "maintenance.add_novel_node.calls": (t.calls("maintenance.add_novel_node"), "count"),
        "navharness.run_episode.maintained.calls":
            (len(t.named("navharness.run_episode", "maintained")), "count"),
        "navharness.run_episode.eval.calls":
            (len(t.named("navharness.run_episode", "eval")), "count"),
        "navharness.episode.steps": (c("episode.steps", 0), "count"),
        "navharness.evaluate.s": (t.seconds("navharness.evaluate"), "s"),
        "navharness.collect_trajectory.s": (t.seconds("navharness.collect_trajectory"), "s"),
        "trace.overhead_s": (run.trace_overhead_s, "s"),
    }
    for name in ("perception.predict", "perception.label_reachability", "gridworld.raycast",
                 "gridworld.shortest_feasible_path", "se2.dubins_sample",
                 "gridworld.step_agent", "topograph.localize", "topograph.plan",
                 "topograph.out_neighbors", "cli.main", "maintenance.expand_for_plan",
                 "topograph.remove_vertex", "maintenance.add_novel_node"):
        out[f"{name}.self_s"] = (t.self_seconds(name), "s")
    return {k: (float(v), unit, 1) for k, (v, unit) in out.items()}


def write_spans(run, path: str) -> None:
    """Spans, then per-span aggregates of the hot leaf calls, as JSON lines."""
    with open(path, "w") as fh:
        for span_id, parent, name, start, end, tag in filter(None, run.tracer.spans):
            fh.write(json.dumps({"span": span_id, "parent": parent, "name": name,
                                 "start": start, "end": end, "tag": tag}) + "\n")
        for (parent, name), (calls, seconds) in sorted(
                run.tracer.leaves.items(), key=lambda kv: (-1 if kv[0][0] is None else kv[0][0],
                                                           kv[0][1])):
            fh.write(json.dumps({"parent": parent, "name": name, "calls": calls,
                                 "s": seconds}) + "\n")


def spec_unit(wanted: list[dict], name: str) -> str:
    return next(m["unit"] for m in wanted if m["name"] == name)


def self_check_ok(toponav) -> bool:
    import checks
    results = checks.self_check(toponav)
    for case, ok in results.items():
        print(f"self-check  {case:<24} {'ok' if ok else 'WRONG'}")
    return all(results.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="feed the output checks known-bad outputs and exit")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    toponav = import_program()
    import checks
    import workloads

    if args.self_check:
        return 0 if self_check_ok(toponav) else 1
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = os.path.join(OUT, tag)
    os.makedirs(outdir, exist_ok=True)
    checks_work = self_check_ok(toponav)
    run = workloads.Run(args.seed, outdir, toponav)
    try:
        workloads.WORKLOADS[args.workload](run, args.seconds, bool(args.trace))
    except Exception as e:  # the program raised: a failed operation, reported below
        traceback.print_exc()
        run.ops(1, 1)
        run.violations.append(f"workload raised {type(e).__name__}: {e}")

    # Repeated runs of one seed, in any process, must write the same bytes.
    env = environment()
    store = checks.DigestStore(os.path.join(OUT, "digests.json"))
    for key, digests in sorted(run.digests.items()):
        run.check(f"digests of {key}", store.check(
            f"{args.workload} seed={args.seed} {key} source={env['source_sha256'][:16]}",
            digests))
    if args.trace and run.trace_overhead_s is not None:
        run.metrics.update(layer_metrics(run))
        write_spans(run, os.path.join(outdir, "spans.jsonl"))
    run.metric("failed_ops_ratio", run.failed / run.attempted, "ratio", run.attempted)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, n) in run.metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<10} n={n}")
    for key, digests in sorted(run.digests.items()):
        for name, digest in sorted(digests.items()):
            print(f"  sha256 {key} {name}: {digest}")
    for v in run.violations:
        print(f"  FAILED {v}")

    missing = [m["name"] for m in wanted
               if run.metrics.get(m["name"], (0, None))[1] != m["unit"]]
    for name in missing:
        print(f"  MISSING metric {name} in {spec_unit(wanted, name)}")
    correct = checks_work and run.failed == 0 and not missing
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": run.metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted if m["name"] not in missing},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, environment=env, violations=run.violations,
                  digests=run.digests, info=run.info,
                  all_metrics={k: {"value": v, "unit": u, "n": n}
                               for k, (v, u, n) in run.metrics.items()})
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
