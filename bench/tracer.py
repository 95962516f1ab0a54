"""Call wrapping for toponav, installed from outside the package.

The benchmark never edits the program.  It replaces module attributes
(and a few class methods) with thin wrappers that time each call and
forward it unchanged.  A function imported by name into several modules
is wrapped at every module that calls it, because each module looks the
name up in its own namespace.

Two kinds of wrapped call:

* span: one record per call with its parent span, start and end.  Used
  for the coarse calls (episode, localize, plan, expand, build, ...).
* leaf: the hot calls (predict, label_reachability, raycast, step_agent,
  out_neighbors, ...).  Only a count and a time per parent span are kept,
  since a lifelong run makes about 300k predict calls.

Every call, of either kind, adds its duration to its caller's child time,
so a layer's self time is its total minus the time of wrapped calls it
made.
"""

from __future__ import annotations

import importlib
import time

SPAN, LEAF = "span", "leaf"

# (module, attribute, layer.name, kind).  "Class.method" attributes are
# wrapped on the class so every caller sees the wrapper.
COARSE = [
    ("toponav.cli", "main", "cli.main", SPAN),
    ("toponav.cli", "run_lifelong", "navharness.run_lifelong", SPAN),
    ("toponav.navharness", "run_lifelong", "navharness.run_lifelong", SPAN),
    ("toponav.navharness", "run_episode", "navharness.run_episode", SPAN),
    ("toponav.navharness", "localize", "topograph.localize", SPAN),
    ("toponav.cli", "build_graph", "topograph.build_graph", SPAN),
    ("toponav.topograph", "build_graph", "topograph.build_graph", SPAN),
]

LAYERS = COARSE + [
    ("toponav.cli", "collect_trajectory", "navharness.collect_trajectory", SPAN),
    ("toponav.navharness", "collect_trajectory", "navharness.collect_trajectory", SPAN),
    ("toponav.cli", "save_graph", "topograph.save_graph", SPAN),
    ("toponav.navharness", "evaluate", "navharness.evaluate", SPAN),
    ("toponav.cli", "evaluate", "navharness.evaluate", SPAN),
    ("toponav.cli", "run_episode", "navharness.run_episode", SPAN),
    ("toponav.navharness", "plan", "topograph.plan", SPAN),
    ("toponav.maintenance", "plan", "topograph.plan", SPAN),
    ("toponav.navharness", "expand_for_plan", "maintenance.expand_for_plan", SPAN),
    ("toponav.navharness", "add_novel_node", "maintenance.add_novel_node", SPAN),
    ("toponav.navharness", "apply_traversal_update",
     "maintenance.apply_traversal_update", LEAF),
    ("toponav.topograph", "TopoGraph.remove_vertex", "topograph.remove_vertex", LEAF),
    ("toponav.topograph", "TopoGraph.add_vertex", "topograph.add_vertex", LEAF),
    ("toponav.topograph", "TopoGraph.out_neighbors", "topograph.out_neighbors", LEAF),
    ("toponav.perception", "OracleEstimator.predict", "perception.predict", LEAF),
    ("toponav.perception", "OracleEstimator.true_label", "perception.true_label", LEAF),
    ("toponav.perception", "label_reachability", "perception.label_reachability", LEAF),
    ("toponav.perception", "dubins_sample", "se2.dubins_sample", LEAF),
    ("toponav.perception", "shortest_feasible_path",
     "gridworld.shortest_feasible_path", LEAF),
    ("toponav.navharness", "shortest_feasible_path",
     "gridworld.shortest_feasible_path", LEAF),
    ("toponav.perception", "raycast_scan", "gridworld.raycast_scan", LEAF),
    ("toponav.gridworld", "raycast_scan", "gridworld.raycast_scan", LEAF),
    ("toponav.navharness", "raycast_scan", "gridworld.raycast_scan", LEAF),
    ("toponav.gridworld", "raycast", "gridworld.raycast", LEAF),
    ("toponav.navharness", "raycast", "gridworld.raycast", LEAF),
    ("toponav.navharness", "step_agent", "gridworld.step_agent", LEAF),
]


def _maintain(args, kwargs) -> bool:
    # run_episode(world, graph, pool, estimator, start, goal, limits,
    #             build_params, maint_params, maintain, ...)
    if "maintain" in kwargs:
        return bool(kwargs["maintain"])
    return len(args) > 9 and bool(args[9])


class Tracer:
    """Wraps the given bindings while installed; collects spans and counts.

    Frames on the call stack are lists:
    [name, child seconds, child calls by name, span id, note from _on_enter].
    """

    def __init__(self, bindings):
        self.bindings = bindings
        self.stack: list = []
        self.totals: dict[str, list] = {}   # name -> [calls, seconds, self seconds]
        self.spans: list[tuple] = []        # (id, parent, name, start, end, tag)
        self.leaves: dict[tuple, list] = {}  # (parent span, name) -> [calls, seconds]
        self.counts: dict[str, float] = {}  # derived counters, see _on_exit
        self._saved: list = []

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        for module, attr, name, kind in self.bindings:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, kind))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, fn, name, kind):
        stack = self.stack
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        tracer = self
        is_span = kind == SPAN

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if is_span:
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # reserve the id; filled on exit
            frame = [name, 0.0, None, span_id, tracer._on_enter(name, args, kwargs)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[1]
                parent_span = None
                if parent is not None:
                    parent[1] += elapsed
                    kids = parent[2]
                    if kids is None:
                        kids = parent[2] = {}
                    kids[name] = kids.get(name, 0) + 1
                    parent_span = parent[3] if parent[3] is not None else _enclosing(stack)
                if is_span:
                    tag = None
                    if name == "navharness.run_episode":
                        tag = "maintained" if frame[4] else "eval"
                    tracer.spans[span_id] = (span_id, parent_span, name, start, end, tag)
                else:
                    agg = tracer.leaves.get((parent_span, name))
                    if agg is None:
                        agg = tracer.leaves[(parent_span, name)] = [0, 0.0]
                    agg[0] += 1
                    agg[1] += elapsed
            tracer._on_exit(name, frame, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- derived counters ---------------------------------------------------

    def _on_enter(self, name, args, kwargs):
        if name == "navharness.run_episode":
            return _maintain(args, kwargs)
        if name == "topograph.localize":
            return args[0].n_vertices
        if name == "topograph.build_graph":
            self.count("build.observations", len(args[0]))
            return args[1].grid  # build_graph(traj, estimator, ...)
        if name == "navharness.run_lifelong":
            return args[0].grid  # run_lifelong(world, ...)
        return None

    def _on_exit(self, name, frame, result):
        kids = frame[2] or {}
        if name in ("topograph.build_graph", "navharness.run_lifelong"):
            # Scan-cache size at the end of the latest build or lifelong run.
            self.counts["scan_cache.entries"] = len(getattr(frame[4], "_scan_cache", ()))
        elif name == "topograph.localize":
            predicts = kids.get("perception.predict", 0)
            self.count("localize.predicts", predicts)
            if result is None:
                self.count("localize.failed")
            if predicts >= frame[4]:
                self.count("localize.global_scans")
        elif name == "topograph.plan":
            if result is None:
                self.count("plan.none")
        elif name == "maintenance.expand_for_plan":
            self.count("expand.tentative_vertices", kids.get("topograph.add_vertex", 0))
            if result is not None:
                self.count("expand.succeeded")
                self.count("expand.kept_vertices", len(result[1]))
        elif name == "maintenance.apply_traversal_update":
            if result.action == "pruned":
                self.count("traversal.pruned")
        elif name == "perception.label_reachability":
            if not any(k.startswith("gridworld.") for k in kids):
                self.count("label_reachability.gated")
        elif name == "navharness.run_episode":
            self.count("episode.steps", result.steps)

    # -- queries ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def named(self, name: str, tag=None) -> list[tuple]:
        """Finished spans of one name (and tag), in call order."""
        return [s for s in self.spans
                if s is not None and s[2] == name and (tag is None or s[5] == tag)]

    def durations(self, name: str, tag=None) -> list[float]:
        return [s[4] - s[3] for s in self.named(name, tag)]


def _enclosing(stack):
    for frame in reversed(stack):
        if frame[3] is not None:
            return frame[3]
    return None
