"""The benchmark's hooks into the package.

`bench/tracer.py` wraps module attributes by name and `bench/workloads.py`
calls `toponav.cli` helpers and config attributes.  These tests fail when a
refactor drops or renames one of them, instead of the benchmark run.
"""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import toponav.cli
from toponav.cli import load_config
from toponav.fixtures import two_room_map
from toponav.maintenance import MaintenanceParams
from toponav.navharness import EpisodeLimits, World, run_lifelong
from toponav.perception import OracleEstimator
from toponav.se2 import Pose2D
from toponav.topograph import EdgeBelief, TopoGraph, TrajectoryPool

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_wraps_and_restores_every_binding():
    tracer = _tracer()
    names = [(module, attr) for module, attr, _, _ in tracer.LAYERS]
    originals = [_resolve(*n) for n in names]
    t = tracer.Tracer(tracer.LAYERS).install()
    try:
        assert all(_resolve(*n) is not o for n, o in zip(names, originals))
    finally:
        t.uninstall()
    assert all(_resolve(*n) is o for n, o in zip(names, originals))


def test_tracer_tags_maintained_and_eval_episodes():
    # The per-layer episode counts and the lifelong workloads' op_ms read
    # these tags, which the tracer takes from run_episode's `maintain`.
    tracer = _tracer()
    grid = two_room_map()
    world = World(grid)
    graph = TopoGraph()
    a, b = world.observe(Pose2D(1.5, 2.5, 0.0)), world.observe(Pose2D(2.5, 2.5, 0.0))
    graph.add_vertex(a)
    graph.add_vertex(b)
    graph.add_edge(a.id, b.id, EdgeBelief(0.9, 1.0, 0.25))
    graph.add_edge(b.id, a.id, EdgeBelief(0.9, 1.0, 0.25))
    limits = EpisodeLimits(max_steps=100)
    with tracer.Tracer(tracer.COARSE) as t:
        run_lifelong(world, graph, TrajectoryPool(), OracleEstimator(grid), 2, 1,
                     [(Pose2D(1.6, 2.5, 0.0), b.id)], limits, graph.build_params,
                     MaintenanceParams(), seed=0)
    assert len(t.named("navharness.run_episode", "maintained")) == 2
    assert len(t.named("navharness.run_episode", "eval")) == 3


def test_workloads_use_existing_cli_names():
    text = (BENCH / "workloads.py").read_text()
    helpers = set(re.findall(r"\bcli\.(\w+)", text))
    assert {"load_config", "make_grid", "main"} <= helpers
    assert [h for h in helpers if not hasattr(toponav.cli, h)] == []
    attrs = set(re.findall(r"\bcfg\.(\w+)", text))
    assert {"build_params", "limits", "loops"} <= attrs
    cfg = load_config(None)
    assert [a for a in attrs if not hasattr(cfg, a)] == []


def test_benchmark_self_check_passes():
    # bench/checks.py builds observations, graphs and beliefs with the
    # package's constructors, which no other test runs through the bench.
    run = subprocess.run([sys.executable, str(BENCH / "run.py"), "--self-check"],
                         cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    verdicts = [ln.split()[-1] for ln in run.stdout.splitlines() if ln.startswith("self-check")]
    assert verdicts == ["ok"] * 5
