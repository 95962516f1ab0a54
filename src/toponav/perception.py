"""Observations, reachability labeling and the pluggable pose/reachability
estimator.

An observation owns its sensing: its depth scan is cast on the map the
first time it is read, or parsed from the file line it was loaded from,
and kept.  Scoring a pair of observations compares their two scans, as the
paper's estimator compares two stored images.

An estimator is anything with five methods:

* distance_floor(src_obs, dst_obs) -> float, a lower bound on
  waypoint_distance(waypoint(src_obs, dst_obs)), 0.0 when none is known;
* distance_floor_many(graph, obs) -> ndarray, for each vertex of a
  topograph.TopoGraph in id order, a lower bound on distance_floor between
  that vertex and obs in either direction: a vectorised prefilter;
* waypoint_distance(src_obs, dst_obs) -> float, equal bit for bit to
  se2.waypoint_distance(waypoint(src_obs, dst_obs));
* waypoint(src_obs, dst_obs) -> Waypoint, the predicted relative pose;
* predict(src_obs, dst_obs) -> Prediction, the reachability score r_hat
  together with the same waypoint as w_hat.

topograph.reach tests a pair's distance window on the floor, then on
waypoint_distance(), and asks predict() for the score only when the pair
can still pass, so a costly score is only computed on demand; a search
over a graph first drops the vertices whose distance_floor_many lies
beyond the window.
The oracle implementation computes ground truth on the map from the two
observations' scans and corrupts it with configurable noise; its
randomness is keyed on (seed, src.id, dst.id), so a flipped label stays
flipped for that pair for the life of a run.
"""

from __future__ import annotations

import logging
import math
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, LoadError
from .gridworld import (
    DepthScan,
    GridMap,
    co_visible,
    raycast_scan,
    sample_free_pose,
    shortest_feasible_path,
    staircase_length,
)
from .se2 import (
    Pose2D,
    Waypoint,
    dubins_sample,
    log_norm,
    relative,
    relative_xy,
    waypoint_distance,
    wrap_angle,
)

logger = logging.getLogger(__name__)

_PAIR_CACHE_CAP = 65536

_SQRT2 = math.sqrt(2.0)


class Observation:
    """One sensing event: unique id, depth scan, and the two pose records.

    true_pose is simulator ground truth (used by labeling and evaluation);
    odom_pose is the accumulated odometry estimate (used for self-supervised
    waypoint labels).  The scan is read through `scan`: an observation
    given a `view` map instead of a scan casts it from true_pose through
    raycast_scan on the first read, and one read from a file line
    (from_record) parses it from that line on the first read; either keeps
    it.  An observation with neither has no scan.
    """

    __slots__ = ("id", "true_pose", "odom_pose", "_scan", "_view", "_record")

    def __init__(self, id: int, scan: DepthScan | None, true_pose: Pose2D, odom_pose: Pose2D,
                 view: GridMap | None = None):
        self.id = id
        self._scan = scan
        self.true_pose = true_pose
        self.odom_pose = odom_pose
        self._view = view
        self._record = None

    @property
    def scan(self) -> DepthScan | None:
        if self._scan is None:
            if self._view is not None:
                self._scan = raycast_scan(self._view, self.true_pose)
                self._view = None
            elif self._record is not None:
                self._scan = _scan_of_record(self._record.split())
        return self._scan

    def record(self) -> str:
        """The observation's line in a trajectory or graph file, without
        its newline: "id tx ty ttheta ox oy otheta max_range n", then the
        n scan bearings and the n ranges, every float in repr form.  An
        observation read by from_record gives back the line it was read
        from, as it was read.  Raises InvalidInput when there is no scan."""
        if self._record is not None:
            return self._record
        s = self.scan
        if s is None:
            raise InvalidInput(f"observation {self.id} has no scan to save")
        vals = [repr(float(v)) for v in (
            self.true_pose.x, self.true_pose.y, self.true_pose.theta,
            self.odom_pose.x, self.odom_pose.y, self.odom_pose.theta, s.max_range)]
        angles = " ".join(map(repr, s.angles.tolist()))
        ranges = " ".join(map(repr, s.ranges.tolist()))
        return f"{self.id} {' '.join(vals)} {len(s.angles)} {angles} {ranges}"

    @classmethod
    def from_record(cls, line: str) -> Observation:
        """The observation of one record() line.  Every value is checked
        here, and the line is kept, so the scan is built from it on the
        first read of `scan` and record() returns it unchanged.  Raises
        LoadError for a count of ray values other than 2n, a non-finite
        value, a max_range that is not positive or a range outside
        [0, max_range]; ValueError or IndexError for a line that does not
        parse."""
        parts = line.split()
        oid = int(parts[0])
        poses = [float(v) for v in parts[1:7]]
        max_range = float(parts[7])
        n = int(parts[8])
        rest = list(map(float, parts[9:]))
        if len(rest) != 2 * n:
            raise LoadError(f"observation {oid}: expected {2 * n} ray values")
        if not (all(map(math.isfinite, poses)) and math.isfinite(max_range)
                and all(map(math.isfinite, rest))):
            raise LoadError(f"observation {oid}: non-finite value")
        ranges = rest[n:]
        if not (max_range > 0.0 and min(ranges, default=0.0) >= 0.0
                and max(ranges, default=0.0) <= max_range):
            raise LoadError(f"observation {oid}: ranges must lie in [0, max_range], "
                            "max_range > 0")
        obs = cls(oid, None, Pose2D(*poses[:3]), Pose2D(*poses[3:]))
        obs._record = line
        return obs


def _scan_of_record(parts: list[str]) -> DepthScan:
    """The scan of a checked record line, split into its fields."""
    n = int(parts[8])
    values = np.array(list(map(float, parts[9:])))
    return DepthScan.from_ranges(float(parts[1]), float(parts[2]), values[:n], values[n:],
                                 float(parts[7]))


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

    def __post_init__(self):
        if not (0.0 <= self.L_min <= 1.0):
            raise InvalidInput("L_min must be in [0, 1]")
        if not (self.R_max > 0.0 and self.E_max > 0.0):
            raise InvalidInput("R_max and E_max must be positive")
        if not (self.Theta_max >= 0.0):
            raise InvalidInput("Theta_max must be non-negative")
        if not (0.0 < self.turn_radius < math.inf):
            raise InvalidInput("turn_radius must be positive and finite")


@dataclass(frozen=True)
class NoiseConfig:
    """Oracle corruption: waypoint Gaussians plus label flip rates."""

    pos_sigma: float = 0.0
    theta_sigma: float = 0.0
    false_positive_rate: float = 0.0
    false_negative_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.pos_sigma < math.inf and 0.0 <= self.theta_sigma < math.inf):
            raise InvalidInput("noise sigmas must be non-negative and finite")
        if not (0.0 <= self.false_positive_rate <= 1.0
                and 0.0 <= self.false_negative_rate <= 1.0):
            raise InvalidInput("label flip rates must be in [0, 1]")
        if self.seed < 0:
            raise InvalidInput("noise seed must be non-negative")


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
    scan_a: Callable[[], DepthScan] | None = None,
    scan_b: Callable[[], DepthScan] | None = None,
) -> int:
    """Ground-truth reachability of b from a.  1 iff every criterion holds:

    b is near (euclidean <= E_max, heading change <= Theta_max), the map's
    sensor at a sees it with visual overlap >= L_min (co_visible, which
    decides range, field of view, free cell, sight line and overlap), a
    bounded-curvature path to it keeps the map's robot disc clear of walls,
    and the feasible path is not much longer than the straight line (ratio
    <= R_max).

    The label is the AND of these checks, so their order is free: the
    map-free gates run first, so most far-apart pairs never touch the map,
    then co-visibility, which rejects most of the pairs that reach it, and
    the Dubins and path checks last.  The path search runs only when the
    straightest staircase of cells between the two poses is blocked or too
    long to decide the ratio.  Poses within one resolution of each other
    are labelled reachable once the near gates pass.  scan_a and scan_b
    are co_visible's: callables for the scans taken at a and b, read only
    when the overlap test needs them, or None to cast on the map.
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
    if not co_visible(grid, a, b, c.L_min, scan_a, scan_b):
        return 0
    poses = dubins_sample(a, b, c.turn_radius, 0.5 * grid.resolution)
    if any(grid.disc_blocked(x, y) for x, y in poses[:, :2].tolist()):
        return 0
    # A clear staircase between the two cells is a path of the cell graph
    # that no path undercuts, so the search below could only return its
    # octile length, summed in another order.  A sum over the steps of any
    # path across the grid rounds by far less than a relative 1e-9, so with
    # that margin the search's length would pass the ratio test.
    if staircase_length(grid, a, b) * (1.0 + 1e-9) <= c.R_max * euclid:
        return 1
    # A path longer than R_max * euclid fails the ratio test, so the search
    # stops there, with a margin for rounding; beyond it reads inf, which
    # fails the test too.
    path_len = shortest_feasible_path(grid, a, b, c.R_max * euclid * (1.0 + 1e-9))
    if path_len / euclid > c.R_max:
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
    ):
        self.grid = grid
        self.noise = noise
        self.criteria = criteria
        # Pair key -> Prediction once labelled, _PairDraws before.  Entries
        # hold no reference back to the estimator.
        self._cache: OrderedDict = OrderedDict()

    def true_label(self, a: Observation, b: Observation) -> int:
        """label_reachability of the two true poses, comparing the two
        observations' own scans; an observation without one is cast on
        the map."""
        return label_reachability(self.grid, a.true_pose, b.true_pose, self.criteria,
                                  lambda: self._scan(a), lambda: self._scan(b))

    def _scan(self, o: Observation) -> DepthScan:
        scan = o.scan
        return raycast_scan(self.grid, o.true_pose) if scan is None else scan

    def _exact(self, a: Observation, b: Observation) -> tuple[float, float, float]:
        """relative(a.true_pose, b.true_pose) + 0.0, as floats before a
        Waypoint wraps the heading once more.  + 0.0 turns a -0.0 into
        +0.0, as adding a zero-sigma Gaussian draw does; the sign of a zero
        can flip a later atan2.  Every wrap of relative() and Waypoint is
        kept: wrap_angle can move a heading one float below pi up to pi,
        so a second wrap is not always a no-op."""
        dx, dy = relative_xy(a.true_pose, b.true_pose)
        dtheta = wrap_angle(b.true_pose.theta - a.true_pose.theta)
        return dx + 0.0, dy + 0.0, wrap_angle(dtheta + 0.0)

    def _exact_waypoint(self, a: Observation, b: Observation) -> Waypoint:
        return Waypoint(*self._exact(a, b))

    def _noisy_waypoints(self) -> bool:
        return self.noise.pos_sigma != 0.0 or self.noise.theta_sigma != 0.0

    def _draw(self, a: Observation, b: Observation) -> _PairDraws:
        """The pair's draws from its own stream: label flip, score wobble,
        then the waypoint noise."""
        rng = np.random.default_rng([self.noise.seed, a.id, b.id])
        # Generator.uniform(lo, hi) is lo + (hi - lo) * random(), one double
        # each, so these are the draws of uniform() and uniform(-0.04, 0.04).
        u_flip, u = rng.random(2).tolist()
        wobble = -0.04 + (0.04 - -0.04) * u
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

    def distance_floor(self, a: Observation, b: Observation) -> float:
        """A lower bound on waypoint_distance(waypoint(a, b)) that costs no
        waypoint: with exact waypoints, the norm of (position offset,
        sqrt(2) * heading change), the heading change wrapped and less an
        absolute 1e-9, the norm less a relative 1e-9 for rounding and an
        absolute 1e-150 for squares that underflow in waypoint_distance;
        0.0 with pose noise.

        The bound holds because the translation part of the SE(2) log is
        V(theta)^-1 applied to the rotated position offset, and V(theta) is
        a rotation scaled by at most 1, so it is no shorter than the offset;
        the rotation term adds 2 * omega^2, omega being the wrapped heading
        change.
        """
        if self._noisy_waypoints():
            return 0.0
        pa, pb = a.true_pose, b.true_pose
        turn = max(0.0, abs(wrap_angle(pb.theta - pa.theta)) - 1e-9)
        return max(0.0, math.hypot(pb.x - pa.x, pb.y - pa.y, _SQRT2 * turn) * (1.0 - 1e-9)
                   - 1e-150)

    def distance_floor_many(self, graph, obs: Observation) -> np.ndarray:
        """distance_floor between obs and each vertex of graph, in id order
        and either direction, with twice its margins: numpy's hypot and
        remainder may round otherwise than math.hypot and wrap_angle, so
        the margins keep each value at or below the scalar floor."""
        poses = graph.poses
        if self._noisy_waypoints():
            return np.zeros(len(poses))
        p = obs.true_pose
        turn = np.abs(np.remainder(poses[:, 2] - p.theta + math.pi, 2.0 * math.pi) - math.pi)
        offset = np.hypot(poses[:, 0] - p.x, poses[:, 1] - p.y)
        norm = np.hypot(offset, _SQRT2 * np.maximum(turn - 2e-9, 0.0))
        return np.maximum(norm * (1.0 - 2e-9) - 2e-150, 0.0)

    def waypoint_distance(self, a: Observation, b: Observation) -> float:
        """waypoint_distance(waypoint(a, b)), bit for bit.  With exact
        waypoints it builds no Waypoint: the heading gets Waypoint's own
        wrap, and the norm is se2's."""
        if self._noisy_waypoints():
            return waypoint_distance(self.waypoint(a, b))
        dx, dy, dtheta = self._exact(a, b)
        return log_norm(dx, dy, wrap_angle(dtheta))

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
) -> list[LabeledPair]:
    """Sample labeled pose pairs uniformly over free space.

    Each pair draws a map, then two disc-free poses; the label is ground
    truth on that map, whose sensor takes the scans, and the waypoint is
    the exact relative transform.
    Observation ids run 0..2*n_pairs-1.
    """
    if not maps:
        raise InvalidInput("need at least one map")
    if n_pairs < 1:
        raise InvalidInput("n_pairs must be >= 1")
    if rng_seed < 0:
        raise InvalidInput("rng_seed must be non-negative")
    rng = np.random.default_rng(rng_seed)
    pairs = []
    next_id = 0
    for _ in range(n_pairs):
        m = maps[int(rng.integers(len(maps)))]
        pa = sample_free_pose(m, rng)
        pb = sample_free_pose(m, rng)
        oa = Observation(next_id, None, pa, pa, m)
        ob = Observation(next_id + 1, None, pb, pb, m)
        next_id += 2
        r = label_reachability(m, pa, pb, criteria)
        pairs.append(LabeledPair(oa, ob, r, relative(pa, pb)))
    pos = sum(p.r for p in pairs)
    logger.info("sim dataset: %d pairs, %d positive (%.1f%%)", len(pairs), pos,
                100.0 * pos / len(pairs))
    return pairs


def label_finetune_pairs(traj: list[Observation], H: int) -> list[LabeledPair]:
    """Self-supervised labels from one trajectory, no map access.

    For every ordered pair (o_i, o_j) with j > i: reachable iff the step gap
    j - i is at most the horizon H; the waypoint label is the odometry delta.
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


_DATASET_HEADER = "toponav-dataset/v1"


def save_dataset(pairs: list[LabeledPair], path: str, criteria: ReachabilityCriteria) -> None:
    """Line-delimited export: a criteria header, then one record per line
    (ids, true poses, label, waypoint; no scans)."""
    lines = [f"# {_DATASET_HEADER}"]
    for f in fields(ReachabilityCriteria):
        lines.append(f"# {f.name} {getattr(criteria, f.name)!r}")
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


def load_dataset(path: str) -> tuple[list[LabeledPair], ReachabilityCriteria]:
    """Inverse of save_dataset: the pairs, each observation holding its
    record's id and true pose (as its odometry pose too) and no scan, and
    the criteria that labelled them.  Raises LoadError unless the header
    gives every ReachabilityCriteria field, once each, in field order, as
    values the criteria accept, or when the pair or positive count differs
    from the header's.  A `# regime` line, which older files carry, is skipped."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise LoadError(f"{path}: {e}") from e
    if not lines or lines[0] != f"# {_DATASET_HEADER}":
        raise LoadError(f"{path}: not a {_DATASET_HEADER} file")
    counts = None
    named = []
    pairs = []
    for ln in lines[1:]:
        if ln.startswith("# pairs "):
            counts = ln[2:]
        elif ln.startswith("#") and not ln.startswith("# regime "):
            named.append(ln[1:].split())
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 12:
            raise LoadError(f"{path}: malformed record {ln!r}")
        try:
            src_id, dst_id, r = int(parts[0]), int(parts[1]), int(parts[8])
            v = [float(x) for x in parts[2:8] + parts[9:]]
        except ValueError as e:
            raise LoadError(f"{path}: malformed record {ln!r}") from e
        if r not in (0, 1):
            raise LoadError(f"{path}: label must be 0 or 1 in record {ln!r}")
        if not all(map(math.isfinite, v)):
            raise LoadError(f"{path}: non-finite value in record {ln!r}")
        sp, dp = Pose2D(*v[0:3]), Pose2D(*v[3:6])
        pairs.append(LabeledPair(Observation(src_id, None, sp, sp),
                                 Observation(dst_id, None, dp, dp), r, Waypoint(*v[6:9])))
    names = [f.name for f in fields(ReachabilityCriteria)]
    if [n[0] if len(n) == 2 else None for n in named] != names:
        raise LoadError(f"{path}: the header must give the criteria {', '.join(names)}, "
                        f"one '# name value' line each, in that order")
    try:
        criteria = ReachabilityCriteria(*(float(value) for _, value in named))
    except (ValueError, InvalidInput) as e:
        raise LoadError(f"{path}: bad criteria in the header: {e}") from e
    # The count line save_dataset writes: a cut or edited file fails it.
    read = f"pairs {len(pairs)} positive {sum(p.r for p in pairs)}"
    if counts != read:
        raise LoadError(f"{path}: header reads {counts!r} but the records hold {read!r}")
    return pairs, criteria
