"""Command-line front end.

Subcommands cover the whole pipeline on a bundled map (two-room or
apartment): trajectory collection, graph construction, single episodes,
evaluation, and the lifelong maintenance experiment.  Every run is a
pure function of the config file plus --seed, so identical invocations
produce identical outputs.

Exit codes: 0 on success, 1 on runtime errors, 2 on usage or config
errors.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import Field, dataclass, fields, replace

import numpy as np

from .errors import ConfigError, Error, InvalidInput, InvalidMap, RouteError
from .fixtures import apartment_map, apartment_route, two_room_map, two_room_route
from .gridworld import DEFAULT_ROBOT_RADIUS, ControllerGains, GridMap, SensorConfig
from .maintenance import MaintenanceParams
from .navharness import (
    EXPAND_STREAM,
    TEST_SET_STREAM,
    EpisodeLimits,
    OdomNoise,
    World,
    collect_trajectory,
    estimate_distance_variance,
    evaluate,
    make_test_set,
    run_episode,
    run_lifelong,
)
from .perception import NoiseConfig, OracleEstimator, ReachabilityCriteria
from .se2 import Pose2D
from .topograph import (
    BuildParams,
    build_graph,
    load_graph,
    load_trajectory,
    save_graph,
    save_trajectory,
)

# The bundled maps, each with the route that collection drives on it.
_MAPS = {"two-room": (two_room_map, two_room_route),
         "apartment": (apartment_map, apartment_route)}


@dataclass(frozen=True)
class MapSettings:
    """The bundled map to run on and the robot body."""

    map: str = "two-room"
    resolution: float = 0.1
    dt: float = 0.1
    robot_radius: float = DEFAULT_ROBOT_RADIUS

    def __post_init__(self):
        if self.map not in _MAPS:
            raise InvalidInput(f"unknown map {self.map!r}: expected two-room or apartment")
        if not (0.0 < self.resolution < math.inf):
            raise InvalidInput("map resolution must be positive and finite")
        if not (0.0 < self.dt < math.inf):
            raise InvalidInput("dt must be positive and finite")
        if not (0.0 <= self.robot_radius < math.inf):
            raise InvalidInput("robot_radius must be non-negative and finite")


@dataclass(frozen=True)
class RunSettings:
    """Trajectory collection and the lifelong experiment's schedule."""

    loops: int = 1
    spacing: float = 0.2
    odom_pos_sigma: float = 0.0
    odom_theta_sigma: float = 0.0
    n_queries: int = 100
    eval_every: int = 25
    n_goals: int = 5
    n_episodes: int = 10
    auto_variance: bool = False

    def __post_init__(self):
        for name in ("loops", "spacing", "eval_every", "n_goals", "n_episodes"):
            if not (getattr(self, name) > 0):
                raise InvalidInput(f"{name} must be positive")
        if not (self.n_queries >= 0):
            raise InvalidInput("n_queries must be non-negative")
        if self.n_queries % self.eval_every != 0:
            raise InvalidInput("eval_every must divide n_queries")
        OdomNoise(self.odom_pos_sigma, self.odom_theta_sigma)


# INI section -> the dataclasses whose fields are its keys.  A field is a key
# unless it is a seed (set by --seed).  No field name may repeat:
# ExperimentConfig holds one value per name.
_SECTIONS = {
    "gridworld": (MapSettings, SensorConfig, ControllerGains),
    "perception": (NoiseConfig, ReachabilityCriteria),
    "topograph": (BuildParams,),
    "maintenance": (MaintenanceParams,),
    "navharness": (RunSettings, EpisodeLimits),
}
_NOT_KEYS = ("seed", "rng_seed")


# Field type (a string under postponed annotations) -> its configparser getter.
_GETTERS = {"str": "get", "int": "getint", "float": "getfloat", "bool": "getboolean"}


def _keys() -> dict[tuple[str, str], Field]:
    """(INI section, key) -> the dataclass field it sets."""
    return {(section, f.name): f
            for section, classes in _SECTIONS.items()
            for cls in classes for f in fields(cls) if f.name not in _NOT_KEYS}


_KEYS = _keys()


class ExperimentConfig:
    """Every config key as a flat attribute named after its field (`cfg.D_c`,
    `cfg.resolution`), holding its dataclass default until a file sets it."""

    def __init__(self):
        for f in _KEYS.values():
            setattr(self, f.name, f.default)

    def make(self, cls, **given):
        """An instance of `cls` from this config's values for its fields;
        `given` sets the rest (seeds) or overrides."""
        values = {f.name: vars(self)[f.name] for f in fields(cls) if f.name in vars(self)}
        return cls(**{**values, **given})

    def build_params(self, seed: int) -> BuildParams:
        return self.make(BuildParams, rng_seed=seed)

    def limits(self) -> EpisodeLimits:
        return self.make(EpisodeLimits)

    def validate(self) -> None:
        try:
            for cls in (cls for classes in _SECTIONS.values() for cls in classes):
                self.make(cls)
        except Error as e:
            raise ConfigError(str(e)) from e


def load_config(path: str | None) -> ExperimentConfig:
    """Parse an INI-style config; unknown sections or keys are errors."""
    cfg = ExperimentConfig()
    if path is None:
        cfg.validate()
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case so D_m stays D_m
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            f = _KEYS.get((section, key))
            if f is None:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                setattr(cfg, f.name, getattr(parser, _GETTERS[f.type])(section, key))
            except ValueError as e:
                raise ConfigError(f"{path}: bad value for {section}.{key}: {e}") from e
    cfg.validate()
    return cfg


def make_grid(cfg: ExperimentConfig, seed: int) -> GridMap:
    """The configured map, holding the configured robot radius and sensor.
    Every bundled map is fixed, so the seed does not change it.  Raises
    ConfigError for a resolution too coarse to draw the map."""
    try:
        grid = _MAPS[cfg.map][0](cfg.resolution)
    except InvalidMap as e:
        raise ConfigError(f"gridworld.resolution = {cfg.resolution!r} cannot draw the "
                          f"{cfg.map} map: {e}") from e
    return GridMap(grid.resolution, grid.occupied, cfg.robot_radius, cfg.make(SensorConfig))


def make_route(cfg: ExperimentConfig) -> list[Pose2D]:
    return _MAPS[cfg.map][1]()


def make_world(cfg: ExperimentConfig, grid: GridMap, first_id: int = 0) -> World:
    return World(grid, gains=cfg.make(ControllerGains), dt=cfg.dt, first_id=first_id)


def make_estimator(cfg: ExperimentConfig, grid: GridMap, seed: int) -> OracleEstimator:
    return OracleEstimator(grid, noise=cfg.make(NoiseConfig, seed=seed),
                           criteria=cfg.make(ReachabilityCriteria))


def _require_out(args) -> str:
    if args.out is None:
        raise ConfigError(f"{args.command} requires --out")
    return args.out


def _parse_pose(text: str) -> Pose2D:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"pose must be 'x,y,theta', got {text!r}")
    try:
        return Pose2D(*(float(p) for p in parts))
    except ValueError as e:
        raise ConfigError(f"pose must be numeric 'x,y,theta', got {text!r}") from e


def _report(args, text: str) -> int:
    sys.stdout.write(text)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


def _collect(cfg: ExperimentConfig, world: World, seed: int):
    """The trajectory of driving the bundled route in `world`.  Raises
    ConfigError when the route does not fit the map as drawn at the
    configured resolution, for the configured robot."""
    try:
        return collect_trajectory(world, make_route(cfg), cfg.loops, cfg.spacing,
                                  OdomNoise(cfg.odom_pos_sigma, cfg.odom_theta_sigma, seed))
    except RouteError as e:
        raise ConfigError(f"gridworld.resolution = {cfg.resolution!r} with robot_radius = "
                          f"{cfg.robot_radius!r} leaves the {cfg.map} route undrivable: "
                          f"{e}") from e


def _build(args, cfg: ExperimentConfig, traj, estimator):
    """build_graph under the configured params; with auto_variance on, their
    sigma2_init is the estimator's distance variance over `traj`."""
    params = cfg.build_params(args.seed)
    if cfg.auto_variance:
        params = replace(params, sigma2_init=estimate_distance_variance(estimator, traj, params))
    graph, pool = build_graph(traj, estimator, params)
    if args.verbose:
        print(f"built graph from {len(traj)} observations: {graph.n_vertices} vertices, "
              f"{graph.n_edges} edges, {len(pool)} pool observations")
        if cfg.auto_variance:
            print(f"estimated distance variance {params.sigma2_init:.6f}")
    return graph, pool


def _episode_line(tag: str, res) -> str:
    reason = res.failure_reason or "none"
    return (f"{tag} success={res.success} reason={reason} steps={res.steps} "
            f"collisions={res.collisions} edges={res.edges_traversed} "
            f"pos_err={res.final_pos_error:.3f} yaw_err={res.final_yaw_error:.3f}")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_collect(args, cfg: ExperimentConfig) -> int:
    out = _require_out(args)
    traj = _collect(cfg, make_world(cfg, make_grid(cfg, args.seed)), args.seed)
    save_trajectory(traj, out)
    if args.verbose:
        print(f"wrote {len(traj)} observations to {out}")
    return 0


def _cmd_build(args, cfg: ExperimentConfig) -> int:
    out = _require_out(args)
    traj = load_trajectory(args.trajectory)
    estimator = make_estimator(cfg, make_grid(cfg, args.seed), args.seed)
    graph, pool = _build(args, cfg, traj, estimator)
    save_graph(graph, pool, out)
    return 0


def _cmd_navigate(args, cfg: ExperimentConfig) -> int:
    grid = make_grid(cfg, args.seed)
    estimator = make_estimator(cfg, grid, args.seed)
    graph, pool = load_graph(args.graph)
    world = make_world(cfg, grid, first_id=max(
        list(graph.vertices) + [o.id for o in pool], default=-1) + 1)
    res = run_episode(world, graph, estimator, _parse_pose(args.start), args.goal, cfg.limits(),
                      maintain=cfg.make(MaintenanceParams) if args.maintain else None,
                      pool=pool, expand_rng=np.random.default_rng([args.seed, EXPAND_STREAM]))
    print(_episode_line(f"episode goal={args.goal}", res))
    if args.verbose:
        for ev in res.maintenance_events:
            print(ev.line(0))
    if args.maintain and args.out is not None:
        save_graph(graph, pool, args.out)
    return 0


def _cmd_evaluate(args, cfg: ExperimentConfig) -> int:
    grid = make_grid(cfg, args.seed)
    world = make_world(cfg, grid)
    estimator = make_estimator(cfg, grid, args.seed)
    graph, _ = load_graph(args.graph)
    limits = cfg.limits()
    test_set = make_test_set(world, graph, cfg.n_goals, cfg.n_episodes,
                             np.random.default_rng([args.seed, TEST_SET_STREAM]), limits)
    rate, results = evaluate(world, graph, estimator, test_set, limits)
    lines = [_episode_line(f"episode={i} goal={goal}", r)
             for i, ((_, goal), r) in enumerate(zip(test_set, results))]
    lines.append(f"success_rate={rate:.6f} episodes={len(results)}")
    return _report(args, "\n".join(lines) + "\n")


def _cmd_lifelong(args, cfg: ExperimentConfig) -> int:
    out = _require_out(args)
    seed = args.seed
    grid = make_grid(cfg, seed)
    world = make_world(cfg, grid)
    traj = _collect(cfg, world, seed)
    estimator = make_estimator(cfg, grid, seed)
    graph, pool = _build(args, cfg, traj, estimator)
    limits = cfg.limits()
    test_set = make_test_set(world, graph, cfg.n_goals, cfg.n_episodes,
                             np.random.default_rng([seed, TEST_SET_STREAM]), limits)
    curve = run_lifelong(world, graph, pool, estimator, cfg.n_queries,
                         cfg.eval_every, test_set, limits, graph.build_params,
                         cfg.make(MaintenanceParams), seed)
    with open(out, "w") as fh:
        fh.write(curve.to_table())
    save_graph(graph, pool, out + ".graph")
    if args.verbose:
        q, rate, nv, ne = curve.eval_points[-1]
        print(f"final eval: queries={q} success_rate={rate:.6f} "
              f"vertices={nv} edges={ne}")
    return 0


_COMMANDS = {
    "collect": _cmd_collect,
    "build": _cmd_build,
    "navigate": _cmd_navigate,
    "evaluate": _cmd_evaluate,
    "lifelong": _cmd_lifelong,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file")
    common.add_argument("--seed", type=int, default=0, metavar="INT")
    common.add_argument("--out", metavar="PATH", help="output file")
    common.add_argument("--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="toponav",
        description="Topological navigation experiments on a 2D gridworld.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    sub.add_parser("collect", parents=[common],
                   help="drive the bundled route and record a trajectory file")
    p = sub.add_parser("build", parents=[common],
                       help="build a graph file from a trajectory file")
    p.add_argument("trajectory", help="trajectory file")
    p = sub.add_parser("navigate", parents=[common],
                       help="run a single episode against a graph file")
    p.add_argument("graph", help="graph file")
    p.add_argument("--start", required=True, metavar="X,Y,THETA")
    p.add_argument("--goal", required=True, type=int, metavar="VERTEX")
    p.add_argument("--maintain", action="store_true",
                   help="update edge beliefs during the episode")
    p = sub.add_parser("evaluate", parents=[common],
                       help="success rate of a sampled test set on a graph file")
    p.add_argument("graph", help="graph file")
    sub.add_parser("lifelong", parents=[common],
                   help="full collect/build/maintain experiment; writes the "
                        "eval table and final graph")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:  # numpy's generators take non-negative seeds only
            parser.error("argument --seed: must be non-negative")
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (Error, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
