"""Hand-built maps and patrol routes shared by tests, demos, and the CLI,
and a seeded procedural floor plan that has no route.

Route legs are straight-line drivable: the feedback controller has no
obstacle avoidance, so every leg (including the closing one) keeps a
clear corridor, passing doorways head-on through their centers.
"""

import math

import numpy as np

from .errors import InvalidInput, InvalidMap
from .gridworld import GridMap
from .se2 import Pose2D


def _headed_loop(points):
    # Each pose faces its direction of arrival.  The controller's heading
    # term then vanishes along straight legs, so it drives them straight
    # instead of arcing off-corridor to meet the next leg's heading.
    poses = []
    for i, (x, y) in enumerate(points):
        px, py = points[i - 1]
        poses.append(Pose2D(x, y, math.atan2(y - py, x - px)))
    return poses


def _walled(width: float, height: float, resolution: float) -> np.ndarray:
    """Occupancy of an empty width x height m room at resolution, border
    occupied.  Raises InvalidMap when the resolution leaves fewer than three
    cells on a side, where the maps' inner walls would miss the grid."""
    nx = int(round(width / resolution))
    ny = int(round(height / resolution))
    if nx < 3 or ny < 3:
        raise InvalidMap(f"resolution {resolution!r} leaves a {nx} x {ny} grid; "
                         "the map needs at least 3 x 3 cells")
    occ = np.zeros((ny, nx), dtype=bool)
    occ[0, :] = occ[-1, :] = True
    occ[:, 0] = occ[:, -1] = True
    return occ


def two_room_map(resolution: float = 0.1) -> GridMap:
    """7 x 5 m: two rooms split at x = 3.5 with a 1 m doorway at mid-height."""
    occ = _walled(7.0, 5.0, resolution)
    div = int(round(3.5 / resolution))
    occ[:, div] = True
    occ[int(round(2.0 / resolution)):int(round(3.0 / resolution)), div] = False
    return GridMap(resolution, occ)


def two_room_route() -> list[Pose2D]:
    """Tour of both rooms, walked out and back.

    Rows run head-on into the divider well away from the doorway, the
    doorway itself is crossed straight through, and all turns happen in
    open space.  Walking the list both ways covers each leg in both
    travel directions."""
    out = [
        (1.3, 1.0), (3.2, 1.0),
        (1.3, 4.0), (3.2, 4.0),
        (2.0, 4.0), (2.0, 1.0),
        (2.2, 2.5), (4.7, 2.5),
        (4.7, 1.0), (4.0, 1.0),
        (5.9, 1.0), (5.9, 4.0),
        (4.0, 4.0),
    ]
    return _headed_loop(out + out[-2:0:-1])


def apartment_map(resolution: float = 0.1) -> GridMap:
    """10 x 8 m, four rooms: full walls at x = 5 and y = 4 with a 1 m
    doorway in every shared wall."""
    occ = _walled(10.0, 8.0, resolution)
    wx = int(round(5.0 / resolution))
    wy = int(round(4.0 / resolution))
    occ[:, wx] = True
    occ[wy, :] = True

    def span(lo, hi):
        return slice(int(round(lo / resolution)), int(round(hi / resolution)))

    occ[span(1.5, 2.5), wx] = False   # door between the two lower rooms
    occ[span(5.5, 6.5), wx] = False   # door between the two upper rooms
    occ[wy, span(2.0, 3.0)] = False   # door on the left side
    occ[wy, span(7.0, 8.0)] = False   # door on the right side
    return GridMap(resolution, occ)


def apartment_route() -> list[Pose2D]:
    """Rectangle through all four rooms; every leg crosses one doorway
    head-on."""
    return _headed_loop([(2.5, 2.0), (7.5, 2.0), (7.5, 6.0), (2.5, 6.0)])


def generate_rooms_map(
    width: float = 10.0,
    height: float = 8.0,
    resolution: float = 0.1,
    rooms_x: int = 2,
    rooms_y: int = 2,
    door_width: float = 0.8,
    seed: int = 0,
) -> GridMap:
    """Procedural floor plan: a rooms_x by rooms_y grid of rooms, one door
    carved at a seeded-random position in every shared wall."""
    nx = int(round(width / resolution))
    ny = int(round(height / resolution))
    if nx < 3 or ny < 3 or rooms_x < 1 or rooms_y < 1:
        raise InvalidInput("map too small")
    if seed < 0:
        raise InvalidInput("seed must be non-negative")
    rng = np.random.default_rng(seed)
    occ = np.zeros((ny, nx), dtype=bool)
    occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = True

    door_cells = max(2, int(round(door_width / resolution)))
    x_walls = [int(round(j * nx / rooms_x)) for j in range(1, rooms_x)]
    y_walls = [int(round(j * ny / rooms_y)) for j in range(1, rooms_y)]
    y_edges = [0] + y_walls + [ny - 1]
    x_edges = [0] + x_walls + [nx - 1]

    for cx in x_walls:
        occ[:, cx] = True
    for cy in y_walls:
        occ[cy, :] = True
    # One door per wall segment between adjacent rooms, walls across x first.
    for walls, edges, cells in ((x_walls, y_edges, occ.T), (y_walls, x_edges, occ)):
        for c in walls:
            for lo, hi in zip(edges[:-1], edges[1:]):
                span = hi - lo - 2
                if span <= door_cells:
                    raise InvalidInput("rooms too small for the requested door width")
                start = lo + 1 + int(rng.integers(0, span - door_cells + 1))
                cells[c, start : start + door_cells] = False
    return GridMap(resolution, occ)
