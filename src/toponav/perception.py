"""Reachability labeling and the pluggable pose/reachability estimator.

An estimator is anything with two methods:

* waypoint(src_obs, dst_obs) -> Waypoint, the predicted relative pose;
* predict(src_obs, dst_obs) -> Prediction, the reachability score r_hat
  together with the same waypoint as w_hat.

Callers test a pair's distance window on waypoint() first and ask predict()
for the score only when the pair can still pass, so a costly score is only
computed on demand.  The oracle implementation computes ground truth on the
map and corrupts it with configurable noise; its randomness is keyed on
(seed, src.id, dst.id), so a flipped label stays flipped for that pair for
the life of a run.
"""

from __future__ import annotations

import logging
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, LoadError
from .gridworld import (
    DEFAULT_ROBOT_RADIUS,
    DepthScan,
    GridMap,
    SensorConfig,
    is_visible,
    raycast_scan,
    sample_free_pose,
    shortest_feasible_path,
    visual_overlap,
)
from .se2 import Pose2D, Waypoint, dubins_sample, relative, wrap_angle

logger = logging.getLogger(__name__)

_PAIR_CACHE_CAP = 65536


@dataclass
class Observation:
    """One sensing event: unique id, depth scan, and the two pose records.

    true_pose is simulator ground truth (used by labeling and evaluation);
    odom_pose is the accumulated odometry estimate (used for self-supervised
    waypoint labels).
    """

    id: int
    scan: DepthScan
    true_pose: Pose2D
    odom_pose: Pose2D


@dataclass(frozen=True)
class Prediction:
    """Estimator output: reachability score in [0, 1] and relative waypoint."""

    r_hat: float
    w_hat: Waypoint


@dataclass(frozen=True)
class ReachabilityCriteria:
    """Thresholds defining when one pose is directly reachable from another."""

    L_min: float = 0.3
    R_max: float = 1.6
    E_max: float = 2.5
    Theta_max: float = math.pi / 2
    turn_radius: float = 0.3
    fov: float = math.pi / 2
    max_range: float = 5.0


@dataclass(frozen=True)
class NoiseConfig:
    """Oracle corruption: waypoint Gaussians plus label flip rates."""

    pos_sigma: float = 0.0
    theta_sigma: float = 0.0
    false_positive_rate: float = 0.0
    false_negative_rate: float = 0.0
    seed: int = 0


@dataclass
class LabeledPair:
    src: Observation
    dst: Observation
    r: int
    w: Waypoint


def label_reachability(
    grid: GridMap,
    a: Pose2D,
    b: Pose2D,
    criteria: ReachabilityCriteria,
    robot_radius: float = DEFAULT_ROBOT_RADIUS,
    n_rays: int = 64,
) -> int:
    """Ground-truth reachability of b from a.  1 iff every criterion holds:

    b is near (euclidean <= E_max, heading change <= Theta_max), in front of
    a and visible from it, a bounded-curvature path to it stays clear of
    walls, the feasible path is not much longer than the straight line
    (ratio <= R_max), and the two poses co-observe enough of the same
    surfaces (visual overlap >= L_min).

    Cheap geometric gates run first, so most far-apart pairs never touch the
    map.  Degenerate near-zero separation passes the direction-dependent
    gates trivially.
    """
    c = criteria
    euclid = math.hypot(b.x - a.x, b.y - a.y)
    if euclid > c.E_max:
        return 0
    if abs(wrap_angle(b.theta - a.theta)) > c.Theta_max:
        return 0
    if euclid < grid.resolution:
        # Same place to within a cell: every remaining criterion is
        # direction- or view-dependent and passes trivially.
        return 1
    bearing = math.atan2(b.y - a.y, b.x - a.x)
    if abs(wrap_angle(bearing - a.theta)) > c.fov / 2.0 + 1e-12:
        return 0
    if not is_visible(grid, a, (b.x, b.y), c.fov, c.max_range):
        return 0
    poses = dubins_sample(a, b, c.turn_radius, 0.5 * grid.resolution)
    if grid.disc_blocked(poses[:, 0], poses[:, 1], robot_radius).any():
        return 0
    path_len = shortest_feasible_path(grid, a, b, robot_radius)
    if not math.isfinite(path_len) or path_len / euclid > c.R_max:
        return 0
    sensor = SensorConfig(fov=c.fov, n_rays=n_rays, max_range=c.max_range)
    if visual_overlap(grid, a, b, sensor) < c.L_min:
        return 0
    return 1


class _PairDraws(NamedTuple):
    """A pair's noise draws, kept until predict() labels the pair."""

    w_hat: Waypoint
    u_flip: float
    wobble: float


class OracleEstimator:
    """Ground-truth estimator with configurable corruption.

    predict() is a pure function of (noise.seed, src.id, dst.id) and the two
    true poses: label flips persist per pair across repeated queries, the
    reachability score lands near 0.95 or 0.05 with a small uniform wobble,
    and the waypoint is the true relative transform plus Gaussian noise.
    waypoint() returns that same waypoint without labelling the pair.
    """

    def __init__(
        self,
        grid: GridMap,
        noise: NoiseConfig = NoiseConfig(),
        criteria: ReachabilityCriteria = ReachabilityCriteria(),
        robot_radius: float = DEFAULT_ROBOT_RADIUS,
        n_rays: int = 64,
    ):
        self.grid = grid
        self.noise = noise
        self.criteria = criteria
        self.robot_radius = robot_radius
        self.n_rays = n_rays
        # Pair key -> Prediction once labelled, _PairDraws before.  Entries
        # hold no reference back to the estimator.
        self._cache: OrderedDict = OrderedDict()

    def true_label(self, a: Observation, b: Observation) -> int:
        return label_reachability(
            self.grid, a.true_pose, b.true_pose, self.criteria, self.robot_radius, self.n_rays
        )

    def _exact_waypoint(self, a: Observation, b: Observation) -> Waypoint:
        # + 0.0 turns a -0.0 component into +0.0, as adding a zero-sigma
        # Gaussian draw does; the sign of a zero can flip a later atan2.
        w = relative(a.true_pose, b.true_pose)
        return Waypoint(w.dx + 0.0, w.dy + 0.0, wrap_angle(w.dtheta + 0.0))

    def _noisy_waypoints(self) -> bool:
        return self.noise.pos_sigma != 0.0 or self.noise.theta_sigma != 0.0

    def _draw(self, a: Observation, b: Observation) -> _PairDraws:
        """The pair's draws from its own stream: label flip, score wobble,
        then the waypoint noise."""
        rng = np.random.default_rng([self.noise.seed, a.id, b.id])
        u_flip = rng.uniform()
        wobble = rng.uniform(-0.04, 0.04)
        if not self._noisy_waypoints():
            return _PairDraws(self._exact_waypoint(a, b), u_flip, wobble)
        w_true = relative(a.true_pose, b.true_pose)
        w_hat = Waypoint(
            w_true.dx + rng.normal(0.0, self.noise.pos_sigma),
            w_true.dy + rng.normal(0.0, self.noise.pos_sigma),
            wrap_angle(w_true.dtheta + rng.normal(0.0, self.noise.theta_sigma)),
        )
        return _PairDraws(w_hat, u_flip, wobble)

    def _store(self, key, entry) -> None:
        if key not in self._cache and len(self._cache) >= _PAIR_CACHE_CAP:
            self._cache.popitem(last=False)
        self._cache[key] = entry

    def waypoint(self, a: Observation, b: Observation) -> Waypoint:
        """predict(a, b).w_hat, without labelling the pair."""
        if not self._noisy_waypoints():
            return self._exact_waypoint(a, b)
        key = (a.id, b.id, a.true_pose, b.true_pose)
        entry = self._cache.get(key)
        if entry is None:
            entry = self._draw(a, b)
            self._store(key, entry)
        return entry.w_hat

    def predict(self, a: Observation, b: Observation) -> Prediction:
        key = (a.id, b.id, a.true_pose, b.true_pose)
        entry = self._cache.get(key)
        if isinstance(entry, Prediction):
            return entry
        if entry is None:
            entry = self._draw(a, b)
        if self.true_label(a, b) == 1:
            predicted = 0 if entry.u_flip < self.noise.false_negative_rate else 1
        else:
            predicted = 1 if entry.u_flip < self.noise.false_positive_rate else 0
        pred = Prediction((0.95 if predicted else 0.05) + entry.wobble, entry.w_hat)
        self._store(key, pred)
        return pred


# ---------------------------------------------------------------------------
# Training-style losses.
# ---------------------------------------------------------------------------

_CLAMP = 1e-7


def loss_reachability(r: int, r_hat: float) -> float:
    """Binary cross-entropy; r_hat is clamped away from 0 and 1."""
    p = min(max(r_hat, _CLAMP), 1.0 - _CLAMP)
    return -(r * math.log(p) + (1 - r) * math.log(1.0 - p))


def loss_position(w: Waypoint, w_hat: Waypoint) -> float:
    """Euclidean error on the translation part."""
    return math.hypot(w.dx - w_hat.dx, w.dy - w_hat.dy)


def loss_rotation(w: Waypoint, w_hat: Waypoint) -> float:
    """|sin - sin| + |cos - cos|, continuous across the angle wrap."""
    return abs(math.sin(w.dtheta) - math.sin(w_hat.dtheta)) + abs(
        math.cos(w.dtheta) - math.cos(w_hat.dtheta)
    )


def loss_total(
    r: int, w: Waypoint, pred: Prediction, alpha: float = 1.0, beta: float = 1.0
) -> float:
    """Joint loss; the waypoint terms only count for reachable pairs."""
    out = loss_reachability(r, pred.r_hat)
    if r:
        out += alpha * loss_position(w, pred.w_hat) + beta * loss_rotation(w, pred.w_hat)
    return out


# ---------------------------------------------------------------------------
# Datasets.
# ---------------------------------------------------------------------------


def generate_sim_dataset(
    maps: list[GridMap],
    n_pairs: int,
    criteria: ReachabilityCriteria,
    rng_seed: int,
    sensor: SensorConfig = SensorConfig(),
    robot_radius: float = DEFAULT_ROBOT_RADIUS,
) -> list[LabeledPair]:
    """Sample labeled pose pairs uniformly over free space.

    Each pair draws a map, then two disc-free poses; the label is ground
    truth on that map and the waypoint is the exact relative transform.
    Observation ids run 0..2*n_pairs-1.
    """
    if not maps:
        raise InvalidInput("need at least one map")
    if n_pairs < 1:
        raise InvalidInput("n_pairs must be >= 1")
    rng = np.random.default_rng(rng_seed)
    pairs = []
    next_id = 0
    for _ in range(n_pairs):
        m = maps[int(rng.integers(len(maps)))]
        pa = sample_free_pose(m, rng, robot_radius)
        pb = sample_free_pose(m, rng, robot_radius)
        oa = Observation(next_id, raycast_scan(m, pa, sensor), pa, pa)
        ob = Observation(next_id + 1, raycast_scan(m, pb, sensor), pb, pb)
        next_id += 2
        r = label_reachability(m, pa, pb, criteria, robot_radius, sensor.n_rays)
        pairs.append(LabeledPair(oa, ob, r, relative(pa, pb)))
    pos = sum(p.r for p in pairs)
    logger.info("sim dataset: %d pairs, %d positive (%.1f%%)", len(pairs), pos,
                100.0 * pos / len(pairs))
    return pairs


def label_finetune_pairs(traj: list[Observation], H: int, criteria=None) -> list[LabeledPair]:
    """Self-supervised labels from one trajectory, no map access.

    For every ordered pair (o_i, o_j) with j > i: reachable iff the step gap
    j - i is at most the horizon H; the waypoint label is the odometry delta.
    `criteria` is accepted for export metadata only.
    """
    if not traj:
        raise InvalidInput("trajectory is empty")
    if H < 1:
        raise InvalidInput("horizon must be >= 1")
    pairs = []
    for i in range(len(traj)):
        for j in range(i + 1, len(traj)):
            r = 1 if (j - i) <= H else 0
            w = relative(traj[i].odom_pose, traj[j].odom_pose)
            pairs.append(LabeledPair(traj[i], traj[j], r, w))
    pos = sum(p.r for p in pairs)
    logger.info("finetune pairs: %d total, %d positive", len(pairs), pos)
    return pairs


@dataclass(frozen=True)
class DatasetRecord:
    """One line of a dataset file (poses only; scans are not exported)."""

    src_id: int
    dst_id: int
    src_pose: Pose2D
    dst_pose: Pose2D
    r: int
    w: Waypoint


_DATASET_HEADER = "toponav-dataset/v1"


def save_dataset(pairs: list[LabeledPair], path: str, criteria: ReachabilityCriteria,
                 regime: str = "sim") -> None:
    """Line-delimited export: a criteria header, then one record per line."""
    lines = [f"# {_DATASET_HEADER}", f"# regime {regime}"]
    for name in ("L_min", "R_max", "E_max", "Theta_max", "turn_radius", "fov", "max_range"):
        lines.append(f"# {name} {getattr(criteria, name)!r}")
    pos = sum(p.r for p in pairs)
    lines.append(f"# pairs {len(pairs)} positive {pos}")
    for p in pairs:
        sp, dp = p.src.true_pose, p.dst.true_pose
        lines.append(
            f"{p.src.id} {p.dst.id} "
            f"{sp.x!r} {sp.y!r} {sp.theta!r} {dp.x!r} {dp.y!r} {dp.theta!r} "
            f"{p.r} {p.w.dx!r} {p.w.dy!r} {p.w.dtheta!r}"
        )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_dataset(path: str) -> list[DatasetRecord]:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != f"# {_DATASET_HEADER}":
        raise LoadError(f"{path}: not a {_DATASET_HEADER} file")
    records = []
    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 12:
            raise LoadError(f"{path}: malformed record {ln!r}")
        try:
            records.append(
                DatasetRecord(
                    int(parts[0]),
                    int(parts[1]),
                    Pose2D(float(parts[2]), float(parts[3]), float(parts[4])),
                    Pose2D(float(parts[5]), float(parts[6]), float(parts[7])),
                    int(parts[8]),
                    Waypoint(float(parts[9]), float(parts[10]), float(parts[11])),
                )
            )
        except ValueError as e:
            raise LoadError(f"{path}: malformed record {ln!r}") from e
    return records
