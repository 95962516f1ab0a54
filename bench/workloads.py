"""The benchmark workloads.

Each workload drives toponav through its public API and
`toponav.cli.main`, in this process and thread, and makes every input
from the seed.  A run has three phases:

* set-up, made several times; `setup_s` is the median;
* the measured phase, repeated until `seconds` have passed (at least
  a workload's minimum number of units);
* output checks, outside every timed region.

Untraced runs install only the coarse wrappers (episodes, localize,
builds: a few thousand calls per run).  A traced run installs every
layer's wrappers for one unit, and runs the same unit again under the
coarse wrappers alone to measure the tracing overhead.
"""

from __future__ import annotations

import os
import resource
import statistics
import time

import numpy as np

import checks
import tracer as tracing

SETUPS = 3
# build-apartment's set-up takes a quarter second, so it is made more often
# for a steady median.
BUILD_SETUPS = 11

# The lifelong acceptance configuration, and the INI file that gives it to
# the CLI.
LIFELONG = dict(n_queries=100, eval_every=25, n_goals=8, n_episodes=16)
LIFELONG_INI = "[perception]\nfalse_positive_rate = 0.10\n[navharness]\n" + "".join(
    f"{key} = {value}\n" for key, value in LIFELONG.items())
EXPAND = dict(n_queries=40, eval_every=10, n_goals=8, n_episodes=16)
# query-start-two-room: the lifelong workloads' map and estimator noise,
# and start poses in blocks of QUERY_BLOCK.
QUERY_START_INI = "[perception]\nfalse_positive_rate = 0.10\n"
QUERY_BLOCKS = 10
QUERY_BLOCK = 25
QUERY_REPEATS = 3
QUERY_TRACE_PAIRS = 10
# build-apartment builds with this many build seeds, each at least twice.
BUILD_SEEDS = 12
# A traced build-apartment run alternates this many traced and untraced
# builds: in one pair of three-second builds the overhead is lost in noise.
BUILD_TRACE_PAIRS = 3


class Run:
    """What one workload run measured and checked."""

    def __init__(self, seed: int, outdir: str, toponav):
        self.seed = seed
        self.outdir = outdir
        self.toponav = toponav
        self.metrics: dict[str, tuple[float, str, int]] = {}  # name -> (value, unit, n)
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self.digests: dict[str, dict] = {}  # input key -> output file digests
        self.info: dict = {}
        self.tracer: tracing.Tracer | None = None
        self.trace_overhead_s: float | None = None

    def metric(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = (float(value), unit, int(n))

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, label: str, violations: list[str]) -> None:
        """One output check is one operation; any violation fails it."""
        self.attempted += 1
        if violations:
            self.failed += 1
            self.violations.extend(f"{label}: {v}" for v in violations)

    def outputs(self, key: str, paths: dict[str, str]) -> None:
        """Record the digests of one unit's output files.  Units run on the
        same inputs (same key) must write the same bytes."""
        digests = {name: checks.sha256_file(p) for name, p in paths.items()}
        seen = self.digests.setdefault(key, digests)
        if seen is not digests:
            self.check(f"repeat of {key}", [] if seen == digests else
                       [f"outputs differ from the first unit's: {sorted(paths)}"])

    def path(self, filename: str) -> str:
        return os.path.join(self.outdir, filename)


def episodes(params: dict) -> int:
    """Maintained queries plus evaluation episodes of one lifelong run."""
    evals = params["n_queries"] // params["eval_every"] + 1
    return params["n_queries"] + evals * params["n_episodes"]


def quantile(values, q: float) -> float:
    """statistics.quantiles' default method at q; the value itself for one."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[round(q * 100) - 1])


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def repeat(seconds: float, unit, minimum: int = 1) -> int:
    """Call unit(i) for i = 0, 1, ... until `seconds` have passed and at
    least `minimum` calls are done."""
    t0 = time.perf_counter()
    n = 0
    while n < minimum or time.perf_counter() - t0 < seconds:
        unit(n)
        n += 1
    return n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(run: Run, seconds: float, trace: bool, setup, unit, n_setups: int,
             unit_sets_up: bool, minimum: int = 1, pairs: int = 1) -> list[float]:
    """Make n_setups set-ups, then repeat the unit; return the set-up times.
    When unit_sets_up, each unit makes its own set-up as well.

    A traced run instead alternates `pairs` traced and untraced runs of
    unit 0.  The first traced one gives the per-layer metrics; the tracing
    overhead is the median traced minus the median untraced wall time."""
    if trace:
        traced, untraced = [], []
        for k in range(pairs):
            tracer = tracing.Tracer(tracing.LAYERS)
            with tracer:
                if k == 0 and not unit_sets_up:
                    setup()
                traced.append(timed(lambda: unit(0))[0])
            run.tracer = run.tracer or tracer
            with tracing.Tracer(tracing.COARSE):
                untraced.append(timed(lambda: unit(0))[0])
        run.trace_overhead_s = statistics.median(traced) - statistics.median(untraced)
        return []
    run.tracer = tracing.Tracer(tracing.COARSE)
    with run.tracer:
        setups = [timed(setup)[0] for _ in range(n_setups)]
        repeat(seconds, unit, minimum)
    return setups


def _lifelong_metrics(run: Run, setups: list[float], params: dict) -> None:
    t = run.tracer
    queries = [1e3 * d for d in t.durations("navharness.run_episode", "maintained")]
    evals = [1e3 * d for d in t.durations("navharness.run_episode", "eval")]
    lifelong = t.durations("navharness.run_lifelong")
    builds = t.durations("topograph.build_graph")
    run.metric("setup_s", statistics.median(setups), "s", len(setups))
    run.metric("query_p50_ms", quantile(queries, 0.5), "ms", len(queries))
    run.metric("query_p90_ms", quantile(queries, 0.9), "ms", len(queries))
    run.metric("eval_episode_p50_ms", quantile(evals, 0.5), "ms", len(evals))
    run.metric("eval_episode_p80_ms", quantile(evals, 0.8), "ms", len(evals))
    n_queries = params["n_queries"] * len(lifelong)
    run.metric("queries_per_s", n_queries / sum(lifelong), "1/s", n_queries)
    # Per episode: the configuration fixes their number, while the number
    # of navigation cycles is the program's own behaviour.
    n_episodes = episodes(params) * len(lifelong)
    run.metric("op_ms", 1e3 * sum(lifelong) / n_episodes, "ms", n_episodes)
    run.metric("build_obs_per_s", t.counts["build.observations"] / sum(builds), "1/s",
               len(builds))
    run.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)
    run.metric("final_success_rate", run.info["final_success_rate"], "ratio", 1)
    run.metric("wall_crossing_edges", run.info["wall_crossing_edges"], "count", 1)


def _lifelong_checks(run: Run, csv_path: str, params: dict, grid) -> None:
    """Checks on a lifelong run's eval table and final graph file, read
    back from disk so no run's objects outlive it."""
    toponav = run.toponav
    graph_path = csv_path + ".graph"
    graph, _ = toponav.load_graph(graph_path)
    with open(csv_path) as fh:
        table = fh.read()
    run.check("eval table", checks.lifelong_table_violations(
        table, params["n_queries"], params["eval_every"], params["n_episodes"], graph))
    run.check("final graph file", checks.round_trip_violations(
        toponav, graph_path, run.path("roundtrip.graph")))
    run.info["final_success_rate"] = float(table.splitlines()[-1].split(",")[1])
    run.info["wall_crossing_edges"] = len(toponav.wall_crossing_edges(graph, grid))
    run.info["final_vertices"] = graph.n_vertices
    run.info["final_edges"] = graph.n_edges


# ---------------------------------------------------------------------------
# lifelong-two-room: `toponav lifelong` with the acceptance configuration.
# ---------------------------------------------------------------------------


def lifelong_two_room(run: Run, seconds: float, trace: bool) -> None:
    toponav = run.toponav
    cli = toponav.cli
    ini = run.path("lifelong.ini")
    with open(ini, "w") as fh:
        fh.write(LIFELONG_INI)

    def setup():
        # The set-up half of `toponav lifelong`, through the same helpers.
        cfg = cli.load_config(ini)
        grid = cli.make_grid(cfg, run.seed)
        world = cli.make_world(cfg, grid)
        traj = toponav.navharness.collect_trajectory(
            world, cli.make_route(cfg), cfg.loops, cfg.spacing)
        estimator = cli.make_estimator(cfg, grid, run.seed)
        graph, _ = toponav.topograph.build_graph(traj, estimator, cfg.build_params(run.seed))
        toponav.make_test_set(world, graph, cfg.n_goals, cfg.n_episodes,
                              np.random.default_rng([run.seed, 3]), cfg.limits())

    csv = run.path("lifelong.csv")
    exit_codes = []

    def unit(i):
        rc = cli.main(["lifelong", "--config", ini, "--seed", str(run.seed), "--out", csv])
        exit_codes.append(rc)
        if rc == 0:
            run.outputs("cli", {"csv": csv, "graph": csv + ".graph"})

    # The third set-up is the one inside each `toponav lifelong`: from
    # entering main to entering run_lifelong.
    setups = _measure(run, seconds, trace, setup, unit, SETUPS - 1, unit_sets_up=True)
    t = run.tracer
    setups += [ll[3] - m[3] for m, ll in
               zip(t.named("cli.main"), t.named("navharness.run_lifelong"))]
    run.ops(len(t.durations("navharness.run_episode")) + len(t.durations("topograph.build_graph")))
    run.check("toponav lifelong exit code", [f"exit code {rc}" for rc in exit_codes if rc])
    if exit_codes[-1] != 0:
        return
    cfg = cli.load_config(ini)
    _lifelong_checks(run, csv, LIFELONG, cli.make_grid(cfg, run.seed))
    if not trace:
        _lifelong_metrics(run, setups, LIFELONG)


# ---------------------------------------------------------------------------
# expand-two-room: a lifelong run over a graph with holes in its coverage.
# ---------------------------------------------------------------------------


def expand_two_room(run: Run, seconds: float, trace: bool) -> None:
    toponav = run.toponav
    from toponav.fixtures import two_room_map, two_room_route

    def setup():
        grid = two_room_map()
        world = toponav.World(grid)
        traj = toponav.navharness.collect_trajectory(world, two_room_route(), 1, 0.2)
        estimator = toponav.OracleEstimator(grid, noise=toponav.NoiseConfig(
            false_positive_rate=0.10, false_negative_rate=0.15, seed=run.seed))
        bp = toponav.BuildParams(rng_seed=run.seed)
        # Build from every third observation; the rest feed expansion.
        graph, leftovers = toponav.topograph.build_graph(traj[::3], estimator, bp)
        held_out = [o for i, o in enumerate(traj) if i % 3]
        pool = toponav.TrajectoryPool(sorted(held_out + list(leftovers), key=lambda o: o.id))
        limits = toponav.EpisodeLimits()
        test_set = toponav.make_test_set(world, graph, EXPAND["n_goals"], EXPAND["n_episodes"],
                                         np.random.default_rng([run.seed, 3]), limits)
        return world, graph, pool, estimator, test_set, limits, bp

    csv = run.path("expand.csv")
    unit_setups = []

    def unit(i):
        t_setup, (world, graph, pool, estimator, test_set, limits, bp) = timed(setup)
        unit_setups.append(t_setup)
        curve = toponav.navharness.run_lifelong(
            world, graph, pool, estimator, EXPAND["n_queries"], EXPAND["eval_every"],
            test_set, limits, bp, toponav.MaintenanceParams(), run.seed)
        with open(csv, "w") as fh:
            fh.write(curve.to_table())
        toponav.save_graph(graph, pool, csv + ".graph")
        run.outputs("api", {"csv": csv, "graph": csv + ".graph"})

    setups = _measure(run, seconds, trace, setup, unit, SETUPS - 1,
                      unit_sets_up=True) + unit_setups
    t = run.tracer
    run.ops(len(t.durations("navharness.run_episode")) + len(t.durations("topograph.build_graph")))
    _lifelong_checks(run, csv, EXPAND, two_room_map())
    if not trace:
        _lifelong_metrics(run, setups, EXPAND)


# ---------------------------------------------------------------------------
# query-start-two-room: the first cycle of maintained queries.
# ---------------------------------------------------------------------------


def query_start_two_room(run: Run, seconds: float, trace: bool) -> None:
    """Observe at a free pose, localize against the whole graph, insert the
    observation as a novel vertex when that fails, and plan to a goal
    vertex: what `run_episode` does in a maintained query's first cycle.

    The graph is built through `toponav build` from every third
    observation that `toponav collect` records, so the rest of the map is
    thinly covered and about half the start poses become novel vertices.
    Start poses and goals come in blocks; each block starts from that
    graph with a fresh map, world and estimator, so every run of a block
    does the same work and writes the same bytes."""
    toponav = run.toponav
    cli = toponav.cli
    nh = toponav.navharness  # the bindings run_episode calls, as the tracer wraps them
    ini = run.path("query-start.ini")
    with open(ini, "w") as fh:
        fh.write(QUERY_START_INI)
    cfg = cli.load_config(ini)
    traj_path, sub_path, graph_path = (run.path(n) for n in ("collect.traj", "build.traj",
                                                             "start.graph"))
    exit_codes = []

    def setup():
        exit_codes.append(cli.main(["collect", "--config", ini, "--seed", str(run.seed),
                                    "--out", traj_path]))
        traj = toponav.load_trajectory(traj_path)
        toponav.save_trajectory(traj[::3], sub_path)
        exit_codes.append(cli.main(["build", "--config", ini, "--seed", str(run.seed),
                                    "--out", graph_path, sub_path]))
        run.outputs("set-up", {"trajectory": traj_path, "graph": graph_path})

    # The inputs: start poses in free space and goal vertices of the built
    # graph, drawn from the seed.  Goals are drawn as ranks, since the
    # graph's vertex ids are known only after set-up.
    rng = np.random.default_rng([run.seed, 5])
    grid = cli.make_grid(cfg, run.seed)
    starts = [toponav.sample_free_pose(grid, rng) for _ in range(QUERY_BLOCKS * QUERY_BLOCK)]
    goal_ranks = rng.random(len(starts))
    times: dict[int, list[float]] = {}  # block -> seconds of each run
    novel: dict[int, int] = {}
    planned: dict[int, int] = {}

    def unit(i):
        block = i % QUERY_BLOCKS
        out = run.path(f"block{block}.graph")
        t0 = time.perf_counter()
        grid = cli.make_grid(cfg, run.seed)
        world = cli.make_world(cfg, grid)
        estimator = cli.make_estimator(cfg, grid, run.seed)
        params = cfg.build_params(run.seed)
        graph, pool = toponav.load_graph(graph_path)
        goals = sorted(graph.vertices)
        base = max(list(goals) + pool.ids()) + 1
        n_novel = n_planned = 0
        for k in range(block * QUERY_BLOCK, (block + 1) * QUERY_BLOCK):
            obs = world.observe(starts[k], base + k)
            vid = nh.localize(graph, obs, estimator, params)
            if vid is None:
                vid = nh.add_novel_node(graph, pool, obs, estimator, params)
                n_novel += 1
            goal = goals[int(goal_ranks[k] * len(goals))]
            if nh.plan(graph, vid, goal) is not None:
                n_planned += 1
        toponav.save_graph(graph, pool, out)
        times.setdefault(block, []).append(time.perf_counter() - t0)
        novel[block], planned[block] = n_novel, n_planned
        run.check("graph after block", checks.graph_violations(graph, pool))
        run.outputs(f"block {block}", {"graph": out})

    # Round robin over the blocks until `seconds` have passed, and each
    # block at least QUERY_REPEATS times.
    setups = _measure(run, seconds, trace, setup, unit, SETUPS, unit_sets_up=False,
                      minimum=QUERY_REPEATS * QUERY_BLOCKS, pairs=QUERY_TRACE_PAIRS)
    run.ops(sum(len(v) for v in times.values()))
    run.check("toponav exit codes", [f"exit code {rc}" for rc in exit_codes if rc])
    for block in sorted(times):
        run.check(f"block {block} graph file", checks.round_trip_violations(
            toponav, run.path(f"block{block}.graph"), run.path("roundtrip.graph")))
    if trace:
        return
    # Each block counts once, at the mean of its runs.  Not the fastest or
    # the median: the host's speed moves between spells up to a third
    # faster or a fifth slower than usual, for seconds to minutes at a
    # time, and the mean follows the mix of spells where those snap to one
    # of them.
    run.info["block_seconds"] = times
    typical = [statistics.mean(v) for v in times.values()]
    n_starts = QUERY_BLOCK * len(typical)
    run.metric("setup_s", statistics.median(setups), "s", len(setups))
    run.metric("op_ms", 1e3 * sum(typical) / n_starts, "ms", n_starts)
    run.metric("novel_ratio", sum(novel.values()) / n_starts, "ratio", n_starts)
    run.metric("plan_found_ratio", sum(planned.values()) / n_starts, "ratio", n_starts)
    run.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)


# ---------------------------------------------------------------------------
# build-apartment: graph construction alone, noise-free oracle.
# ---------------------------------------------------------------------------


def build_seeds(seed: int) -> list[int]:
    """The run's build seeds: the seed itself, then seeds derived from it,
    so that one run averages over several build orders."""
    derived = np.random.SeedSequence(seed).generate_state(BUILD_SEEDS - 1)
    return [seed] + [int(s) for s in derived]


def build_apartment(run: Run, seconds: float, trace: bool) -> None:
    toponav = run.toponav
    from toponav.fixtures import apartment_map, apartment_route

    trajectory = []

    def setup():
        world = toponav.World(apartment_map())
        trajectory[:] = toponav.navharness.collect_trajectory(world, apartment_route(), 3, 0.2)

    # A build's cost depends on its build seed (0.9 to 3.9 s), so one run
    # averages over several.
    seeds = build_seeds(run.seed)
    times: dict[int, list[float]] = {}  # build seed -> build seconds
    path = run.path("build.graph")

    def unit(i):
        bseed = seeds[i % len(seeds)]
        # A fresh map and estimator per build: no cache carries over.
        estimator = toponav.OracleEstimator(apartment_map())
        t0 = time.perf_counter()
        graph, pool = toponav.topograph.build_graph(trajectory, estimator,
                                                    toponav.BuildParams(rng_seed=bseed))
        times.setdefault(bseed, []).append(time.perf_counter() - t0)
        run.check("built graph", checks.graph_violations(graph, pool)
                  + _from_trajectory(trajectory, graph, pool))
        toponav.save_graph(graph, pool, path)
        run.outputs(f"build seed {bseed}", {"graph": path})
        run.info.setdefault("build_sizes", {})[bseed] = (graph.n_vertices, graph.n_edges)

    # Round robin over the build seeds until `seconds` have passed, and
    # every seed at least twice: a slow run would otherwise build fewer
    # seeds twice, and its fastest builds would read slower still.
    setups = _measure(run, seconds, trace, setup, unit, BUILD_SETUPS, unit_sets_up=False,
                      minimum=2 * len(seeds), pairs=BUILD_TRACE_PAIRS)
    run.ops(sum(len(v) for v in times.values()))
    if trace:
        return
    # Each build seed counts once: its fastest build, the one least slowed
    # by the rest of the machine.
    run.info["build_seconds"] = times
    fastest = [min(v) for v in times.values()]
    run.metric("setup_s", statistics.median(setups), "s", len(setups))
    run.metric("op_ms", 1e3 * sum(fastest) / (len(trajectory) * len(fastest)), "ms",
               len(trajectory) * len(fastest))
    run.metric("build_obs_per_s", len(trajectory) * len(fastest) / sum(fastest), "1/s",
               len(fastest))
    run.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)


def _from_trajectory(traj, graph, pool) -> list[str]:
    """Vertices and pool are drawn from the trajectory, each at most once."""
    placed = list(graph.vertices) + [o.id for o in pool]
    if len(set(placed)) != len(placed) or not set(placed) <= {o.id for o in traj}:
        return ["vertices and pool are not distinct trajectory observations"]
    return []


WORKLOADS = {
    "lifelong-two-room": lifelong_two_room,
    "build-apartment": build_apartment,
    "expand-two-room": expand_two_room,
    "query-start-two-room": query_start_two_room,
}
