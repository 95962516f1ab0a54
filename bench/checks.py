"""Output checks, run outside the timed region.

Each check returns a list of violations; an empty list is a pass.  The
benchmark counts every check as one attempted operation and every check
with a violation as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def graph_violations(graph, pool) -> list[str]:
    """Structural invariants, read through public attributes only."""
    out = []
    vertices = graph.vertices
    for vid, obs in vertices.items():
        if obs.id != vid:
            out.append(f"vertex {vid} holds observation {obs.id}")
    for (src, dst), belief in graph.edges.items():
        if src not in vertices or dst not in vertices:
            out.append(f"edge ({src}, {dst}) has an endpoint that is not a vertex")
        if not 0.0 <= belief.p <= 1.0:
            out.append(f"edge ({src}, {dst}) has p = {belief.p!r} outside [0, 1]")
        if not belief.sigma2 > 0.0:
            out.append(f"edge ({src}, {dst}) has sigma2 = {belief.sigma2!r} <= 0")
    shared = sorted({o.id for o in pool} & set(vertices))
    if shared:
        out.append(f"pool overlaps the vertices at {shared[:5]}")
    return out


def lifelong_table_violations(text: str, n_queries: int, eval_every: int,
                              n_episodes: int, graph) -> list[str]:
    """The eval table has one row per eval point, rates on the episode grid,
    and a last row that matches the final graph."""
    lines = text.splitlines()
    if not lines or lines[0] != "queries,success_rate,n_vertices,n_edges":
        return ["eval table header is missing"]
    rows = [ln.split(",") for ln in lines[1:]]
    out = []
    expected = list(range(0, n_queries + 1, eval_every))
    if [int(r[0]) for r in rows] != expected:
        out.append(f"eval points {[r[0] for r in rows]} != {expected}")
    for r in rows:
        rate = float(r[1])
        if not 0.0 <= rate <= 1.0 or abs(rate * n_episodes - round(rate * n_episodes)) > 1e-4:
            out.append(f"success rate {r[1]} is not k/{n_episodes}")
    if rows and (int(rows[-1][2]), int(rows[-1][3])) != (graph.n_vertices, graph.n_edges):
        out.append("last eval row does not match the final graph size")
    return out


def round_trip_violations(toponav, path: str, copy_path: str) -> list[str]:
    """A saved graph loads back and saves to the same bytes."""
    graph, pool = toponav.load_graph(path)
    toponav.save_graph(graph, pool, copy_path)
    if sha256_file(copy_path) != sha256_file(path):
        return [f"{os.path.basename(path)} does not survive load and save"]
    return graph_violations(graph, pool)


class DigestStore:
    """SHA-256 digests of output files, keyed by workload, seed and program
    source.  A key seen before must produce the same digests again, so
    repeated runs of one seed are checked against each other.  With no
    path the store lives in memory only."""

    def __init__(self, path: str | None):
        self.path = path
        self.data: dict = {}
        if path is not None and os.path.exists(path):
            with open(path) as fh:
                self.data = json.load(fh)

    def check(self, key: str, digests: dict) -> list[str]:
        seen = self.data.get(key)
        if seen is None:
            self.data[key] = dict(digests)
            self._save()
            return []
        return [f"{name} digest {value[:12]} differs from an earlier run's "
                f"{seen.get(name, '')[:12]}"
                for name, value in sorted(digests.items()) if seen.get(name) != value]

    def _save(self) -> None:
        if self.path is None:
            return
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def self_check(toponav) -> dict[str, bool]:
    """Feed the checks known-bad outputs.  Maps each case to True when the
    checks report it as a failed operation, as they must."""
    obs = [toponav.Observation(i, None, toponav.Pose2D(float(i), 0.0, 0.0),
                               toponav.Pose2D(float(i), 0.0, 0.0)) for i in range(2)]
    graph = toponav.TopoGraph()
    for o in obs:
        graph.add_vertex(o)
    graph.add_edge(0, 1, toponav.EdgeBelief(0.9, 1.0, 0.25))
    pool = toponav.TrajectoryPool()
    results = {"clean graph passes": not graph_violations(graph, pool)}
    graph.edges[(1, 7)] = toponav.EdgeBelief(0.9, 1.0, 0.25)
    results["dangling edge fails"] = bool(graph_violations(graph, pool))

    store = DigestStore(None)
    digest = hashlib.sha256(b"eval table").hexdigest()
    results["first digest passes"] = not store.check("case", {"csv": digest})
    results["same digest passes"] = not store.check("case", {"csv": digest})
    corrupted = ("0" if digest[0] != "0" else "1") + digest[1:]
    store.data["case"]["csv"] = corrupted
    results["corrupted digest fails"] = bool(store.check("case", {"csv": digest}))
    return results
