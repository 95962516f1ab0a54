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
from toponav.fixtures import two_room_map
from toponav.gridworld import generate_rooms_map, load_map
from toponav.maintenance import MaintenanceParams
from toponav.navharness import (
    EXPAND_STREAM,
    OdomNoise,
    World,
    collect_trajectory,
    estimate_distance_variance,
    run_episode,
)
from toponav.perception import (
    LabeledPair,
    NoiseConfig,
    ReachabilityCriteria,
    generate_sim_dataset,
    save_dataset,
)
from toponav.se2 import Pose2D, relative
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
    "[gridworld]\nmap = generated\nwidth = nan\n",
    "[gridworld]\nheight = 0\n",
    "[gridworld]\nrooms_x = 0\n",
    "[gridworld]\nrooms_y = 0\n",
    "[gridworld]\ndoor_width = -1\n",
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
    "[perception]\nalpha = nan\n",
    "[perception]\nbeta = -2\n",
    "[navharness]\nauto_variance = maybe\n",
], ids=["D_m", "max_range", "n_rays", "resolution", "false_positive_rate",
        "pos_sigma", "pos_tol", "dt", "spacing", "loops", "eval_every", "n_goals",
        "n_episodes", "omega_max", "v_max", "odom_pos_sigma", "odom_theta_sigma",
        "sigma2_init=0", "sigma2_init=inf", "sigma2_obs", "p_s_given_r1",
        "p_s_given_r0", "D_loc", "r_connect_min=nan", "r_connect_min>1", "L_min=nan",
        "L_min>1", "R_max", "E_max", "Theta_max", "turn_radius=0", "turn_radius=inf",
        "robot_radius<0", "robot_radius=nan", "fov=inf", "max_range=inf", "width=nan",
        "height", "rooms_x", "rooms_y", "door_width", "n_queries", "relax_D_c_factor=nan",
        "pos_sigma=inf", "odom_pos_sigma=inf", "odom_theta_sigma=inf",
        "eval_every_not_dividing", "k_rho=nan", "k_alpha=inf", "k_beta=-inf", "v_max=inf",
        "dt=inf", "recovery_rotation_step=inf", "recovery_rotation_step=1e6",
        "alpha=nan", "beta<0", "auto_variance=maybe"])
def test_config_rejects_invalid_parameter_combination(tmp_path, text):
    p = tmp_path / "bad.ini"
    p.write_text(text)
    with pytest.raises(ConfigError):
        load_config(str(p))


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
    readable = {"str", "str | None", "int", "float", "bool"}
    for classes in _SECTIONS.values():
        for cls in classes:
            for f in fields(cls):
                assert f.type in readable, f"{cls.__name__}.{f.name}: {f.type}"


def test_no_field_name_repeats_across_sections():
    # ExperimentConfig holds one value per field name, so a repeated name
    # would set two parameters from one key.
    names = [f.name for classes in _SECTIONS.values() for cls in classes for f in fields(cls)]
    assert len(names) == len(set(names))


# Every config key in its section, each at its default.  map_file defaults to
# None, which INI cannot write, so it is given a path.
ALL_KEYS = """\
[gridworld]
map = two-room
map_file = maps/rooms.map
width = 10.0
height = 8.0
resolution = 0.1
rooms_x = 2
rooms_y = 2
door_width = 0.8
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
alpha = 1.0
beta = 1.0
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
    assert len(defaults) == ALL_KEYS.count(" = ") == 54
    assert vars(cfg) == {**defaults, "map_file": "maps/rooms.map"}
    # Seeds come from --seed, the criteria's fov from [gridworld], the
    # controller's arrival tolerances are gridworld constants, and
    # maintenance fuses with the graph's [topograph] sigma2_init.
    for section, key in (("perception", "fov"), ("topograph", "rng_seed"),
                         ("gridworld", "arrive_pos_tol"), ("maintenance", "sigma2_obs")):
        p.write_text(f"[{section}]\n{key} = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(p))


def test_config_rejects_unknown_map(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[gridworld]\nmap = warehouse\n")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    rc = main(["collect", "--config", str(tmp_path / "nope.ini"),
               "--out", str(tmp_path / "t")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "command" in capsys.readouterr().out


def test_missing_out_is_usage_error(capsys):
    assert main(["gen-map"]) == 2
    assert "--out" in capsys.readouterr().err


def test_runtime_error_exits_one(tmp_path, capsys):
    rc = main(["build", str(tmp_path / "missing.traj"),
               "--out", str(tmp_path / "g")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, rc", [
    ("config", 2), ("map", 1), ("trajectory", 1), ("graph", 1), ("dataset", 1)])
def test_non_utf8_file_is_typed_error(tmp_path, capsys, kind, rc):
    bad = tmp_path / f"bad.{kind}"
    bad.write_bytes(b"\xff\n")
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text(f"[gridworld]\nmap_file = {bad}\n")
    out = str(tmp_path / "out")
    argv = {
        "config": ["collect", "--config", str(bad), "--out", out],
        "map": ["collect", "--config", str(cfgp), "--out", out],
        "trajectory": ["build", str(bad), "--out", out],
        "graph": ["evaluate", str(bad)],
        "dataset": ["losses", str(bad)],
    }[kind]
    assert main(argv) == rc
    assert "error:" in capsys.readouterr().err


def test_unreadable_map_file_is_typed_error(tmp_path, capsys):
    for path in (tmp_path / "missing.map", tmp_path):
        cfgp = tmp_path / "exp.ini"
        cfgp.write_text(f"[gridworld]\nmap_file = {path}\n")
        assert main(["collect", "--config", str(cfgp), "--out", str(tmp_path / "t")]) == 1
        assert "cannot read map" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def test_gen_map_is_seeded(tmp_path):
    a, b, c = (str(tmp_path / n) for n in ("a.map", "b.map", "c.map"))
    assert main(["gen-map", "--out", a, "--seed", "3"]) == 0
    assert main(["gen-map", "--out", b, "--seed", "3"]) == 0
    assert main(["gen-map", "--out", c, "--seed", "4"]) == 0
    assert open(a).read() == open(b).read()
    assert open(a).read() != open(c).read()
    grid = load_map(a)
    assert grid.nx == 100 and grid.ny == 80


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
    ("gen-map", "[gridworld]\nmap = generated\ndoor_width = 4.0\n"),
    ("lifelong", "[gridworld]\nmap = generated\nwidth = 0.2\n"),
], ids=["odom_pos_sigma=inf", "eval_every_not_dividing", "generated_door_too_wide",
        "generated_map_too_small"])
def test_bad_run_settings_exit_two_before_any_work(tmp_path, capsys, command, text):
    cfgp = tmp_path / "bad.ini"
    cfgp.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgp), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfgp]


@pytest.mark.parametrize("argv, ini", [
    (["gen-map"], ""), (["collect"], ""), (["collect"], "odom_pos_sigma = 0.01"),
    (["build", "t.traj"], ""), (["navigate", "g.graph", "--start", "1.5,1.5,0", "--goal", "0"], ""),
    (["evaluate", "g.graph"], ""), (["lifelong"], ""), (["losses", "d.txt"], ""),
], ids=["gen-map", "collect", "collect-odom-noise", "build", "navigate", "evaluate",
        "lifelong", "losses"])
def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, ini):
    # The input files exist, so only the seed can fail; nothing is written.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.ini").write_text(f"[navharness]\n{ini}\n")
    save_trajectory([World(two_room_map()).observe(Pose2D(1.5, 1.5, 0.0))], "t.traj")
    assert main(["build", "t.traj", "--out", "g.graph"]) == 0
    save_dataset(generate_sim_dataset([two_room_map()], 2, ReachabilityCriteria(), 0),
                 "d.txt", ReachabilityCriteria())
    made = sorted(tmp_path.iterdir())
    assert main(argv + ["--config", "exp.ini", "--seed", "-1", "--out", "out"]) == 2
    assert "--seed: must be non-negative" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == made


@pytest.mark.parametrize("make", [
    lambda: BuildParams(rng_seed=-1), lambda: NoiseConfig(seed=-1), lambda: OdomNoise(seed=-1),
    lambda: generate_rooms_map(seed=-1),
    lambda: generate_sim_dataset([two_room_map()], 1, ReachabilityCriteria(), -1),
], ids=["BuildParams", "NoiseConfig", "OdomNoise", "generate_rooms_map", "generate_sim_dataset"])
def test_negative_seed_parameter_is_invalid_input(make):
    with pytest.raises(InvalidInput):
        make()


def test_losses_reports_means(tmp_path, capsys):
    pairs = generate_sim_dataset([two_room_map()], 40, ReachabilityCriteria(),
                                 rng_seed=5)
    dataset = str(tmp_path / "pairs.dataset")
    save_dataset(pairs, dataset, ReachabilityCriteria())
    assert main(["losses", dataset]) == 0
    out = capsys.readouterr().out
    assert "pairs=40" in out and "mean_total=" in out


def test_losses_scores_with_the_criteria_the_dataset_records(tmp_path, capsys):
    # The [perception] criteria keys do not reach the oracle of `losses`.
    crit = ReachabilityCriteria(E_max=1.0)
    dataset = str(tmp_path / "pairs.dataset")
    save_dataset(generate_sim_dataset([two_room_map()], 200, crit, rng_seed=0), dataset, crit)
    cfgp = tmp_path / "exp.ini"
    cfgp.write_text("[perception]\nE_max = 1.0\n")
    lines = []
    for argv in ([], ["--config", str(cfgp)]):
        assert main(["losses", dataset] + argv) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1] and "pairs=200" in lines[0]


@pytest.mark.parametrize("column, value", [(8, "5"), (8, "-1"), (9, "nan"), (2, "nan"), (7, "inf")],
                         ids=["label=5", "label=-1", "waypoint=nan", "pose=nan", "pose=inf"])
def test_losses_rejects_out_of_range_record(tmp_path, capsys, column, value):
    # Columns: ids, source pose, target pose, label, waypoint.
    pairs = generate_sim_dataset([two_room_map()], 5, ReachabilityCriteria(), rng_seed=5)
    path = tmp_path / "pairs.dataset"
    save_dataset(pairs, str(path), ReachabilityCriteria())
    lines = path.read_text().splitlines()
    parts = lines[-1].split()
    parts[column] = value
    lines[-1] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    assert main(["losses", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def _losses_mean_total(dataset, capsys) -> float:
    assert main(["losses", dataset]) == 0
    return float(capsys.readouterr().out.split("mean_total=")[1].split()[0])


def test_losses_scores_each_record_at_its_own_poses(tmp_path, capsys):
    # Two records reuse the ids 0 and 1: a near pair, and a pair too far
    # apart to be reachable.  Together they score as they do apart.
    world = World(two_room_map())
    pairs = []
    for a, b in [(Pose2D(1.0, 2.5, 0.0), Pose2D(2.0, 2.5, 0.0)),
                 (Pose2D(1.0, 1.0, 0.0), Pose2D(3.0, 4.0, 0.0))]:
        pairs.append(LabeledPair(world.observe(a, oid=0), world.observe(b, oid=1), 1,
                                 relative(a, b)))
    means = []
    for chosen in ([pairs[0]], [pairs[1]], pairs):
        path = str(tmp_path / "pairs.dataset")
        save_dataset(chosen, path, ReachabilityCriteria())
        means.append(_losses_mean_total(path, capsys))
    assert means[0] < 0.1 < 1.0 < means[1]
    assert means[2] == pytest.approx((means[0] + means[1]) / 2, abs=2e-6)


def test_losses_rejects_a_record_pose_in_a_wall(tmp_path, capsys):
    pairs = generate_sim_dataset([two_room_map()], 3, ReachabilityCriteria(), rng_seed=5)
    path = tmp_path / "pairs.dataset"
    save_dataset(pairs, str(path), ReachabilityCriteria())
    lines = path.read_text().splitlines()
    parts = lines[-1].split()
    parts[5:7] = ["0.05", "0.05"]  # the target pose, in the border wall
    lines[-1] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    assert main(["losses", str(path)]) == 1
    assert "error: ray origin (0.050, 0.050) is not in free space" in capsys.readouterr().err


def test_losses_help_names_the_dataset_writers(capsys):
    assert main(["losses", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for name in ("generate_sim_dataset", "label_finetune_pairs", "save_dataset"):
        assert name in text


def test_losses_rejects_garbage_dataset(tmp_path, capsys):
    p = tmp_path / "junk.dataset"
    p.write_text("hello\n")
    assert main(["losses", str(p)]) == 1
