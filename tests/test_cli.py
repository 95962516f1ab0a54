"""Exit codes, config validation, and pipeline plumbing for the CLI."""

import math
from dataclasses import fields

import numpy as np
import pytest

from toponav.cli import (
    _SECTIONS,
    load_config,
    main,
    make_estimator,
    make_grid,
    make_route,
    make_world,
)
from toponav.errors import ConfigError, InvalidInput
from toponav.fixtures import generate_rooms_map, two_room_map
from toponav.maintenance import MaintenanceParams
from toponav.navharness import (
    EXPAND_STREAM,
    OdomNoise,
    World,
    collect_trajectory,
    estimate_distance_variance,
    run_episode,
)
from toponav.perception import NoiseConfig
from toponav.se2 import Pose2D
from toponav.topograph import (BuildParams, TopoGraph, TrajectoryPool, load_graph, save_graph,
                               save_trajectory)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_defaults_without_config():
    cfg = load_config(None)
    assert cfg.map == "two-room"
    assert cfg.n_queries == 100 and cfg.eval_every == 25


def test_config_overrides(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(
        "[gridworld]\nmap = apartment\nn_rays = 32\n"
        "[topograph]\nD_c = 1.5\n"
        "[navharness]\nauto_variance = yes\nloops = 2\n")
    cfg = load_config(str(p))
    assert cfg.map == "apartment"
    assert cfg.n_rays == 32
    assert cfg.D_c == 1.5
    assert cfg.auto_variance is True and cfg.loops == 2


def test_config_rejects_unknown_section(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[planner]\nD_c = 1.5\n")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[topograph]\nD_x = 1.5\n")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_config_rejects_bad_value(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[topograph]\nD_c = huge\n")
    with pytest.raises(ConfigError):
        load_config(str(p))


@pytest.mark.parametrize("text", [
    "[topograph]\nD_m = -1.0\n",
    "[gridworld]\nmax_range = -1\n",
    "[gridworld]\nn_rays = 0\n",
    "[gridworld]\nresolution = nan\n",
    "[perception]\nfalse_positive_rate = 1.5\n",
    "[perception]\npos_sigma = -0.1\n",
    "[navharness]\npos_tol = nan\n",
    "[gridworld]\ndt = 0\n",
    "[navharness]\nspacing = 0\n",
    "[navharness]\nloops = 0\n",
    "[navharness]\neval_every = 0\n",
    "[navharness]\nn_goals = 0\n",
    "[navharness]\nn_episodes = 0\n",
    "[gridworld]\nomega_max = 0\n",
    "[gridworld]\nv_max = 0\n",
    "[navharness]\nodom_pos_sigma = -0.1\nodom_theta_sigma = 0.01\n",
    "[navharness]\nodom_theta_sigma = nan\n",
    "[topograph]\nsigma2_init = 0\n",
    "[topograph]\nsigma2_init = inf\n",
    "[maintenance]\nsigma2_obs = inf\n",
    "[maintenance]\np_s_given_r1 = 1.5\n",
    "[maintenance]\np_s_given_r0 = -0.1\n",
    "[topograph]\nD_loc = nan\n",
    "[topograph]\nr_connect_min = nan\n",
    "[topograph]\nr_connect_min = 1.5\n",
    "[perception]\nL_min = nan\n",
    "[perception]\nL_min = 1.5\n",
    "[perception]\nR_max = 0\n",
    "[perception]\nE_max = nan\n",
    "[perception]\nTheta_max = -0.1\n",
    "[perception]\nturn_radius = 0\n",
    "[perception]\nturn_radius = inf\n",
    "[gridworld]\nrobot_radius = -1\n",
    "[gridworld]\nrobot_radius = nan\n",
    "[gridworld]\nfov = inf\n",
    "[gridworld]\nmax_range = inf\n",
    "[navharness]\nn_queries = -5\n",
    "[maintenance]\nrelax_D_c_factor = nan\n",
    "[perception]\npos_sigma = inf\n",
    "[navharness]\nodom_pos_sigma = inf\n",
    "[navharness]\nodom_theta_sigma = inf\n",
    "[navharness]\nn_queries = 10\neval_every = 25\n",
    "[gridworld]\nk_rho = nan\n",
    "[gridworld]\nk_alpha = inf\n",
    "[gridworld]\nk_beta = -inf\n",
    "[gridworld]\nv_max = inf\n",
    "[gridworld]\ndt = inf\n",
    "[navharness]\nrecovery_rotation_step = inf\n",
    "[navharness]\nrecovery_rotation_step = 1e6\n",
    "[navharness]\nauto_variance = maybe\n",
    "[topograph]\nD_m = 2.0\n",
    "[topograph]\nD_c = 0.4\n",
    "[topograph]\nD_loc = 0\n",
    "[topograph]\nsigma2_init = nan\n",
    "[perception]\ntheta_sigma = -0.1\n",
    "[perception]\ntheta_sigma = inf\n",
    "[perception]\nfalse_negative_rate = -0.1\n",
    "[perception]\nfalse_positive_rate = nan\n",
    "[perception]\nL_min = -0.1\n",
    "[perception]\nR_max = nan\n",
    "[perception]\nE_max = 0\n",
    "[perception]\nTheta_max = nan\n",
    "[maintenance]\nR_p = 0\n",
    "[maintenance]\nR_p = 1\n",
    "[maintenance]\np_s_given_r0 = 0.9\n",
    "[maintenance]\nrelax_D_c_factor = 1\n",
    "[maintenance]\nrelax_D_c_factor = inf\n",
    "[maintenance]\nrelax_D_m_factor = 1\n",
    "[maintenance]\nrelax_D_m_factor = 0\n",
    "[navharness]\nmax_steps = 0\n",
    "[navharness]\nmax_collisions = 0\n",
    "[navharness]\nyaw_tol = 0\n",
    "[navharness]\nmax_recovery_rotations = 0\n",
    "[navharness]\nrecovery_rotation_step = 0\n",
    "[navharness]\nspacing = nan\n",
    "[gridworld]\nresolution = 0\n",
    "[gridworld]\nresolution = inf\n",
    "[gridworld]\nfov = -0.1\n",
    "[gridworld]\nfov = nan\n",
    "[gridworld]\nmax_range = nan\n",
    "[gridworld]\nomega_max = nan\n",
    "[gridworld]\nrobot_radius = inf\n",
    "[gridworld]\ndt = nan\n",
], ids=["D_m", "max_range", "n_rays", "resolution", "false_positive_rate",
        "pos_sigma", "pos_tol", "dt", "spacing", "loops", "eval_every", "n_goals",
        "n_episodes", "omega_max", "v_max", "odom_pos_sigma", "odom_theta_sigma",
        "sigma2_init=0", "sigma2_init=inf", "sigma2_obs", "p_s_given_r1",
        "p_s_given_r0", "D_loc", "r_connect_min=nan", "r_connect_min>1", "L_min=nan",
        "L_min>1", "R_max", "E_max", "Theta_max", "turn_radius=0", "turn_radius=inf",
        "robot_radius<0", "robot_radius=nan", "fov=inf", "max_range=inf", "n_queries",
        "relax_D_c_factor=nan", "pos_sigma=inf", "odom_pos_sigma=inf", "odom_theta_sigma=inf",
        "eval_every_not_dividing", "k_rho=nan", "k_alpha=inf", "k_beta=-inf", "v_max=inf",
        "dt=inf", "recovery_rotation_step=inf", "recovery_rotation_step=1e6",
        "auto_variance=maybe", "D_m=D_c", "D_c<D_m", "D_loc=0", "sigma2_init=nan",
        "theta_sigma<0", "theta_sigma=inf", "false_negative_rate<0",
        "false_positive_rate=nan", "L_min<0", "R_max=nan", "E_max=0", "Theta_max=nan",
        "R_p=0", "R_p=1", "p_s_given_r0=p_s_given_r1", "relax_D_c_factor=1",
        "relax_D_c_factor=inf", "relax_D_m_factor=1", "relax_D_m_factor=0", "max_steps=0",
        "max_collisions=0", "yaw_tol=0", "max_recovery_rotations=0",
        "recovery_rotation_step=0", "spacing=nan", "resolution=0", "resolution=inf",
        "fov<0", "fov=nan", "max_range=nan", "omega_max=nan", "robot_radius=inf", "dt=nan"])
def test_config_rejects_invalid_parameter_combination(tmp_path, text):
    p = tmp_path / "bad.ini"
    p.write_text(text)
    with pytest.raises(ConfigError):
        load_config(str(p))


@pytest.mark.parametrize("section, key, value", [
    ("perception", "L_min", 0.0), ("perception", "L_min", 1.0),
    ("perception", "Theta_max", 0.0), ("perception", "false_positive_rate", 1.0),
    ("topograph", "r_connect_min", 0.0), ("topograph", "r_connect_min", 1.0),
    ("maintenance", "p_s_given_r0", 0.0), ("maintenance", "p_s_given_r1", 1.0),
    ("gridworld", "fov", 0.0), ("gridworld", "robot_radius", 0.0),
    ("navharness", "n_queries", 0), ("navharness", "recovery_rotation_step", 2.0 * math.pi),
], ids=lambda v: v if isinstance(v, str) else repr(v))
def test_config_accepts_each_closed_range_end(tmp_path, section, key, value):
    # The ends of a closed range are valid values, and load as written.
    p = tmp_path / "edge.ini"
    p.write_text(f"[{section}]\n{key} = {value!r}\n")
    got = getattr(load_config(str(p)), key)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("word, value", [
    ("1", True), ("Yes", True), ("TRUE", True), ("oN", True),
    ("0", False), ("nO", False), ("False", False), ("OFF", False)])
def test_auto_variance_reads_every_boolean_word(tmp_path, word, value):
    p = tmp_path / "exp.ini"
    p.write_text(f"[navharness]\nauto_variance = {word}\n")
    assert load_config(str(p)).auto_variance is value


def test_every_config_field_has_a_type_the_loader_reads():
    # load_config reads str, int, float and bool values; a field of any
    # other type would need a parser of its own.
    readable = {"str", "int", "float", "bool"}
    for classes in _SECTIONS.values():
        for cls in classes:
            for f in fields(cls):
                assert f.type in readable, f"{cls.__name__}.{f.name}: {f.type}"


def test_no_field_name_repeats_across_sections():
    # ExperimentConfig holds one value per field name, so a repeated name
    # would set two parameters from one key.
    names = [f.name for classes in _SECTIONS.values() for cls in classes for f in fields(cls)]
    assert len(names) == len(set(names))


# Every config key in its section, each at its default.
ALL_KEYS = """\
[gridworld]
map = two-room
resolution = 0.1
fov = 1.5707963267948966
n_rays = 64
max_range = 5.0
dt = 0.1
robot_radius = 0.18
k_rho = 0.5
k_alpha = 1.5
k_beta = -0.6
v_max = 0.5
omega_max = 1.5
[perception]
pos_sigma = 0.0
theta_sigma = 0.0
false_positive_rate = 0.0
false_negative_rate = 0.0
L_min = 0.3
R_max = 1.6
E_max = 2.5
Theta_max = 1.5707963267948966
turn_radius = 0.3
[topograph]
D_m = 0.5
D_c = 2.0
D_loc = 1.0
r_connect_min = 0.5
sigma2_init = 0.25
[maintenance]
R_p = 0.3
p_s_given_r1 = 0.9
p_s_given_r0 = 0.2
relax_D_c_factor = 1.5
relax_D_m_factor = 0.5
[navharness]
loops = 1
spacing = 0.2
odom_pos_sigma = 0.0
odom_theta_sigma = 0.0
max_steps = 1000
max_collisions = 20
pos_tol = 0.72
yaw_tol = 0.4
recovery_rotation_step = 0.5235987755982988
max_recovery_rotations = 12
n_queries = 100
eval_every = 25
n_goals = 5
n_episodes = 10
auto_variance = false
"""


def test_config_key_set_and_defaults(tmp_path):
    p = tmp_path / "all.ini"
    p.write_text(ALL_KEYS)
    cfg = load_config(str(p))
    defaults = vars(load_config(None))
    assert len(defaults) == ALL_KEYS.count(" = ") == 46
    assert vars(cfg) == defaults
    # Seeds come from --seed, the criteria's fov from [gridworld], the
    # controller's arrival tolerances are gridworld constants, and
    # maintenance fuses with the graph's [topograph] sigma2_init.  Maps
    # are bundled, not read from a file or generated, and no loss is
    # weighed.
    for section, key in (("perception", "fov"), ("topograph", "rng_seed"),
                         ("gridworld", "arrive_pos_tol"), ("maintenance", "sigma2_obs"),
                         ("gridworld", "map_file"), ("gridworld", "width"),
                         ("gridworld", "door_width"), ("perception", "alpha"),
                         ("perception", "beta")):
        p.write_text(f"[{section}]\n{key} = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(p))


@pytest.mark.parametrize("name", ["warehouse", "generated"])
def test_config_rejects_unknown_map(tmp_path, name):
    p = tmp_path / "bad.ini"
    p.write_text(f"[gridworld]\nmap = {name}\n")
    with pytest.raises(ConfigError, match="unknown map"):
        load_config(str(p))


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    rc = main(["collect", "--config", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path / "t")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["frobnicate", "gen-map", "losses"])
def test_unknown_subcommand_is_usage_error(capsys, command):
    assert main([command]) == 2
    assert "usage" in capsys.readouterr().err


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "command" in capsys.readouterr().out


def test_missing_out_is_usage_error(capsys):
    assert main(["collect"]) == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("resolution", ["5", "1.2"])
def test_coarse_resolution_is_config_error(tmp_path, capsys, resolution):
    # At 5 m a cell the two-room map's divider falls off a one-cell grid;
    # at 1.2 m the map is drawn, but the route's first pose is in a wall.
    ini = tmp_path / "coarse.ini"
    ini.write_text(f"[gridworld]\nresolution = {resolution}\n")
    rc = main(["collect", "--config", str(ini), "--out", str(tmp_path / "t.traj")])
    assert rc == 2
    assert "gridworld.resolution" in capsys.readouterr().err
    assert not (tmp_path / "t.traj").exists()


def test_runtime_error_exits_one(tmp_path, capsys):
    rc = main(["build", str(tmp_path / "missing.traj"),
               "--out", str(tmp_path / "g")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, rc", [("config", 2), ("trajectory", 1), ("graph", 1)])
def test_non_utf8_file_is_typed_error(tmp_path, capsys, kind, rc):
    bad = tmp_path / f"bad.{kind}"
    bad.write_bytes(b"\xff\n")
    out = str(tmp_path / "out")
    argv = {
        "config": ["collect", "--config", str(bad), "--out", out],
        "trajectory": ["build", str(bad), "--out", out],
        "graph": ["evaluate", str(bad)],
    }[kind]
    assert main(argv) == rc
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def test_collect_build_navigate_chain(tmp_path, capsys):
    traj = str(tmp_path / "walk.traj")
    graph_path = str(tmp_path / "walk.graph")
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text("[navharness]\nspacing = 0.3\n")
    assert main(["collect", "--config", str(cfgp), "--out", traj]) == 0
    assert main(["build", traj, "--config", str(cfgp), "--out", graph_path]) == 0
    assert open(graph_path).readline().strip() == "topograph/v1"
    graph, _ = load_graph(graph_path)
    goal = sorted(graph.vertices)[0]
    rc = main(["navigate", graph_path, "--config", str(cfgp),
               "--start", "1.6,2.0,0.6", "--goal", str(goal)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "success=" in out and "edges=" in out


def test_build_senses_and_labels_with_the_configured_sensor(tmp_path):
    # The map holds the one sensor: the scans that collect writes and the
    # labels that build draws both come from [gridworld] max_range.
    edges = {}
    for name, extra in (("default", ""), ("short", "[gridworld]\nmax_range = 3.0\n")):
        cfgp = tmp_path / f"{name}.ini"
        cfgp.write_text("[navharness]\nspacing = 0.3\n" + extra)
        traj, gpath = str(tmp_path / f"{name}.traj"), str(tmp_path / f"{name}.graph")
        assert main(["collect", "--config", str(cfgp), "--out", traj]) == 0
        assert main(["build", traj, "--config", str(cfgp), "--out", gpath]) == 0
        lines = open(gpath).read().splitlines()
        obs = lines[lines.index("[observations]") + 1:lines.index("[vertices]")]
        assert obs and {ln.split()[7] for ln in obs} == {"3.0" if extra else "5.0"}
        edges[name] = set(load_graph(gpath)[0].edges)
    assert edges["short"] != edges["default"]


def test_build_single_observation_trajectory(tmp_path):
    world = World(two_room_map())
    save_trajectory([world.observe(Pose2D(1.5, 1.5, 0.0))],
                    str(tmp_path / "one.traj"))
    out = str(tmp_path / "one.graph")
    assert main(["build", str(tmp_path / "one.traj"), "--out", out]) == 0
    graph, pool = load_graph(out)
    assert graph.n_vertices == 1 and graph.n_edges == 0
    assert len(pool) == 0


def test_navigate_maintain_writes_what_the_api_writes(tmp_path, capsys):
    # navigate --maintain is load_graph, one maintained run_episode on the
    # seed's expansion stream, and save_graph; without --maintain it
    # writes nothing.
    traj, gpath = str(tmp_path / "w.traj"), str(tmp_path / "w.graph")
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text("[navharness]\nspacing = 0.3\n")
    assert main(["collect", "--config", str(cfgp), "--out", traj]) == 0
    assert main(["build", traj, "--config", str(cfgp), "--out", gpath]) == 0
    graph, pool = load_graph(gpath)
    goal = min(graph.vertices, key=lambda v: math.hypot(graph.vertices[v].true_pose.x - 2.9,
                                                        graph.vertices[v].true_pose.y - 2.7))
    argv = ["navigate", gpath, "--config", str(cfgp), "--seed", "3",
            "--start", "1.6,2.0,0.6", "--goal", str(goal), "--verbose"]
    out, frozen = str(tmp_path / "m.graph"), tmp_path / "n.graph"
    capsys.readouterr()
    assert main(argv + ["--maintain", "--out", out]) == 0
    printed = capsys.readouterr().out.splitlines()

    cfg = load_config(str(cfgp))
    grid = make_grid(cfg, 3)
    world = make_world(cfg, grid, first_id=max(list(graph.vertices) + pool.ids()) + 1)
    res = run_episode(world, graph, make_estimator(cfg, grid, 3), Pose2D(1.6, 2.0, 0.6), goal,
                      cfg.limits(), maintain=MaintenanceParams(), pool=pool,
                      expand_rng=np.random.default_rng([3, EXPAND_STREAM]))
    assert res.edges_traversed >= 1 and res.maintenance_events
    assert printed[0].startswith(f"episode goal={goal} ")
    assert printed[1:] == [ev.line(0) for ev in res.maintenance_events]
    save_graph(graph, pool, str(tmp_path / "api.graph"))
    assert open(out).read() == (tmp_path / "api.graph").read_text()
    assert main(argv + ["--out", str(frozen)]) == 0
    assert not frozen.exists()


def test_navigate_unknown_goal_exits_one(tmp_path, capsys):
    traj = str(tmp_path / "w.traj")
    gpath = str(tmp_path / "w.graph")
    assert main(["collect", "--out", traj]) == 0
    assert main(["build", traj, "--out", gpath]) == 0
    rc = main(["navigate", gpath, "--start", "1.6,2.0,0.6", "--goal", "999999"])
    assert rc == 1
    assert "not in the graph" in capsys.readouterr().err


def test_navigate_rejects_malformed_start(tmp_path, capsys):
    traj = str(tmp_path / "w.traj")
    gpath = str(tmp_path / "w.graph")
    assert main(["collect", "--out", traj]) == 0
    assert main(["build", traj, "--out", gpath]) == 0
    assert main(["navigate", gpath, "--start", "one,two", "--goal", "0"]) == 2


def test_evaluate_writes_report(tmp_path, capsys):
    traj = str(tmp_path / "w.traj")
    gpath = str(tmp_path / "w.graph")
    report = str(tmp_path / "report.txt")
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text("[navharness]\nn_goals = 2\nn_episodes = 3\n")
    assert main(["collect", "--config", str(cfgp), "--out", traj]) == 0
    assert main(["build", traj, "--config", str(cfgp), "--out", gpath]) == 0
    rc = main(["evaluate", gpath, "--config", str(cfgp), "--out", report])
    assert rc == 0
    text = open(report).read()
    assert text.count("episode=") == 3
    assert "success_rate=" in text.splitlines()[-1]
    assert capsys.readouterr().out == text


def test_evaluate_empty_graph_exits_one(tmp_path, capsys):
    gpath = str(tmp_path / "empty.graph")
    save_graph(TopoGraph(), TrajectoryPool(), gpath)
    assert main(["evaluate", gpath]) == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_uses_the_graph_files_build_params(tmp_path, capsys):
    # [topograph] sets how a graph is built; a built graph file carries its
    # own [params], and evaluate localizes and judges arrivals with those.
    traj = str(tmp_path / "w.traj")
    gpath = str(tmp_path / "w.graph")
    plain, tuned = tmp_path / "plain.ini", tmp_path / "tuned.ini"
    plain.write_text("[navharness]\nn_goals = 2\nn_episodes = 4\n")
    tuned.write_text(plain.read_text() + "[topograph]\nD_loc = 0.05\nD_c = 1.0\n")
    assert main(["collect", "--out", traj]) == 0
    assert main(["build", traj, "--out", gpath]) == 0
    capsys.readouterr()
    reports = []
    for cfgp in (plain, tuned):
        assert main(["evaluate", gpath, "--config", str(cfgp)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_lifelong_runs_are_byte_identical(tmp_path):
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(
        "[perception]\nfalse_positive_rate = 0.1\n"
        "[navharness]\nn_queries = 4\neval_every = 2\n"
        "n_goals = 2\nn_episodes = 2\nspacing = 0.4\n")
    one, two = str(tmp_path / "one.csv"), str(tmp_path / "two.csv")
    assert main(["lifelong", "--config", str(cfgp), "--seed", "9", "--out", one]) == 0
    assert main(["lifelong", "--config", str(cfgp), "--seed", "9", "--out", two]) == 0
    assert open(one).read() == open(two).read()
    assert open(one + ".graph").read() == open(two + ".graph").read()
    lines = open(one).read().splitlines()
    assert lines[0] == "queries,success_rate,n_vertices,n_edges"
    assert len(lines) == 4  # header + evals at 0, 2, 4


def test_lifelong_auto_variance_sets_sigma2_init(tmp_path):
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(
        "[perception]\npos_sigma = 0.05\n"
        "[navharness]\nauto_variance = yes\nn_queries = 2\neval_every = 1\n"
        "n_goals = 1\nn_episodes = 2\n")
    out = str(tmp_path / "curve.csv")
    assert main(["lifelong", "--config", str(cfgp), "--seed", "4", "--out", out]) == 0
    graph, _ = load_graph(out + ".graph")
    # The same trajectory and a fresh estimator, as the command makes them.
    cfg = load_config(str(cfgp))
    grid = make_grid(cfg, 4)
    traj = collect_trajectory(make_world(cfg, grid), make_route(cfg), cfg.loops, cfg.spacing,
                              OdomNoise(cfg.odom_pos_sigma, cfg.odom_theta_sigma, 4))
    want = estimate_distance_variance(make_estimator(cfg, grid, 4), traj, cfg.build_params(4))
    assert graph.build_params.sigma2_init == want != cfg.sigma2_init


@pytest.mark.parametrize("auto_variance", ["no", "yes"])
def test_build_writes_the_graph_lifelong_builds(tmp_path, auto_variance):
    # collect + build and a lifelong run of no queries make one graph, with
    # the estimated distance variance as its sigma2_init when asked for.
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(
        "[perception]\npos_sigma = 0.05\nfalse_positive_rate = 0.1\n"
        f"[navharness]\nauto_variance = {auto_variance}\nn_queries = 0\n"
        "n_goals = 1\nn_episodes = 1\n")
    common = ["--config", str(cfgp), "--seed", "4"]
    traj, built, curve = (str(tmp_path / n) for n in ("w.traj", "w.graph", "life.csv"))
    assert main(["collect", *common, "--out", traj]) == 0
    assert main(["build", traj, *common, "--out", built]) == 0
    assert main(["lifelong", *common, "--out", curve]) == 0
    assert open(built, "rb").read() == open(curve + ".graph", "rb").read()
    sigma2 = load_graph(built)[0].build_params.sigma2_init
    assert (sigma2 == 0.25) is (auto_variance == "no")


@pytest.mark.parametrize("command, text", [
    ("collect", "[navharness]\nodom_pos_sigma = inf\n"),
    ("lifelong", "[navharness]\nn_queries = 10\neval_every = 25\n"),
    ("collect", "[gridworld]\nmap = generated\n"),
    ("collect", "[gridworld]\nmap_file = maps/rooms.map\n"),
    ("lifelong", "[gridworld]\nwidth = 10.0\n"),
    ("lifelong", "[gridworld]\ndoor_width = 0.8\n"),
    ("lifelong", "[perception]\nalpha = 1.0\n"),
    ("lifelong", "[perception]\nbeta = 1.0\n"),
], ids=["odom_pos_sigma=inf", "eval_every_not_dividing", "map=generated", "map_file", "width",
        "door_width", "alpha", "beta"])
def test_bad_run_settings_exit_two_before_any_work(tmp_path, capsys, command, text):
    cfgp = tmp_path / "bad.ini"
    cfgp.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgp), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfgp]


@pytest.mark.parametrize("argv, ini", [
    (["collect"], ""), (["collect"], "odom_pos_sigma = 0.01"), (["build", "t.traj"], ""),
    (["navigate", "g.graph", "--start", "1.5,1.5,0", "--goal", "0"], ""),
    (["evaluate", "g.graph"], ""), (["lifelong"], ""),
], ids=["collect", "collect-odom-noise", "build", "navigate", "evaluate", "lifelong"])
def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, ini):
    # The input files exist, so only the seed can fail; nothing is written.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.ini").write_text(f"[navharness]\n{ini}\n")
    save_trajectory([World(two_room_map()).observe(Pose2D(1.5, 1.5, 0.0))], "t.traj")
    assert main(["build", "t.traj", "--out", "g.graph"]) == 0
    made = sorted(tmp_path.iterdir())
    assert main(argv + ["--config", "exp.ini", "--seed", "-1", "--out", "out"]) == 2
    assert "--seed: must be non-negative" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == made


@pytest.mark.parametrize("make", [
    lambda: BuildParams(rng_seed=-1), lambda: NoiseConfig(seed=-1), lambda: OdomNoise(seed=-1),
    lambda: generate_rooms_map(seed=-1),
], ids=["BuildParams", "NoiseConfig", "OdomNoise", "generate_rooms_map"])
def test_negative_seed_parameter_is_invalid_input(make):
    with pytest.raises(InvalidInput):
        make()
