"""Drive the simulated robot across the two-room world.

The feedback controller chases a goal pose in world coordinates;
step_agent integrates the unicycle and refuses to enter walls.  Where the
straight line to the goal passes matters more than distance: the
controller is purely local.
"""

import math

from toponav import AgentState, Pose2D, World, feedback_control, step_agent
from toponav.gridworld import render_ascii
from toponav.fixtures import two_room_map

grid = two_room_map()
world = World(grid)


def drive(start, goal, budget=800):
    state = AgentState(pose=start)
    trace = [state.pose]
    for _ in range(budget):
        cmd = feedback_control(state.pose, goal, world.gains)
        if cmd.v == 0.0 and cmd.omega == 0.0:
            break
        state = step_agent(world.grid, state, cmd, world.dt)
        trace.append(state.pose)
    return state, trace


# lined up with the doorway: a clean pass between the rooms
start = Pose2D(2.2, 2.5, 0.0)
state, trace = drive(start, Pose2D(5.0, 2.5, 0.0))
print(render_ascii(grid, poses=trace[::6]))
d = math.hypot(state.pose.x - 5.0, state.pose.y - 2.5)
print(f"via the door: steps={state.step_count} "
      f"collisions={state.collision_count} final offset={d:.2f} m")

# aimed through the wall: the robot presses against it and goes nowhere
state, trace = drive(start, Pose2D(5.5, 1.0, 0.0))
d = math.hypot(state.pose.x - 5.5, state.pose.y - 1.0)
print(f"into the wall: steps={state.step_count} "
      f"collisions={state.collision_count} final offset={d:.2f} m")
print("pressing is the failure signal the graph maintenance consumes")

# a scan from wherever the robot ended up
obs = world.observe(state.pose)
r = obs.scan.ranges
print(f"depth scan there: {len(r)} rays, min={r.min():.2f} max={r.max():.2f}")
