"""The package's top level: the names the demos, the README and the benchmark
import from `toponav`, and nothing else.

A name that leaves the top level while a demo still imports it, or one that
is imported but not listed in `__all__`, fails here instead of in a user's
script.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import toponav
import toponav.cli  # noqa: F401  (the benchmark binds toponav.cli too)

ROOT = Path(__file__).resolve().parent.parent


def _imported_from_toponav(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "toponav"
            for alias in node.names}


def test_all_lists_exactly_the_bound_public_names():
    tree = ast.parse(Path(toponav.__file__).read_text())
    bound = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(toponav.__all__) == sorted(n for n in bound if not n.startswith("_"))


def test_demos_and_readme_import_only_listed_names():
    sources = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    used = set().union(*map(_imported_from_toponav, sources))
    assert {"World", "build_graph", "run_lifelong"} <= used
    assert sorted(used - set(toponav.__all__)) == []


def test_bench_uses_existing_top_level_names():
    used = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "toponav"}
    assert {"BuildParams", "OracleEstimator", "load_graph"} <= used
    assert sorted(n for n in used if not hasattr(toponav, n)) == []


def test_no_module_imports_another_modules_private_name():
    # Each private helper has one owner; a second module that needs it
    # calls the owner's public function instead.
    found = []
    for path in sorted((ROOT / "src" / "toponav").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "toponav"):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def test_only_the_map_takes_the_robot_radius_and_sensor():
    # The map holds the robot's radius and depth sensor once; every other
    # function reads them from the map it is given.
    found = []
    for path in sorted((ROOT / "src" / "toponav").glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {child: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for child in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            names = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
            name = f"{owners[node]}.{node.name}" if node in owners else node.name
            if names & {"sensor", "robot_radius"} and name != "GridMap.__init__":
                found.append(f"{path.name}: {name}")
    assert found == []


def test_only_gridworld_reads_the_sensor_and_no_function_takes_a_fov():
    # gridworld.co_visible alone decides what the map's sensor sees: no
    # other module reads the sensor, and no function takes a field of view.
    found = []
    for path in sorted((ROOT / "src" / "toponav").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "sensor"
                    and path.name != "gridworld.py"):
                found.append(f"{path.name}:{node.lineno}: reads .sensor")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                if "fov" in {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}:
                    found.append(f"{path.name}:{node.lineno}: takes fov")
    assert found == []


def test_no_function_takes_a_graph_beside_its_build_params():
    # A graph holds the params it was built with; a function given the
    # graph reads them from it.  connect and is_mergeable are the window
    # primitives, wired under relaxed params by expand_for_plan.  localize,
    # add_novel_node and run_lifelong keep their params until the benchmark
    # calls them by keyword (ROADMAP item 1), since bench/workloads.py
    # passes them by position.
    allowed = {"connect", "is_mergeable", "localize", "add_novel_node", "run_lifelong"}
    found = []
    for path in sorted((ROOT / "src" / "toponav").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            # A parameter's name and annotation, e.g. ("params", "BuildParams").
            kinds = {(arg.arg, getattr(arg.annotation, "id", None))
                     for arg in a.posonlyargs + a.args + a.kwonlyargs}
            takes_graph = any(n == "graph" or t == "TopoGraph" for n, t in kinds)
            takes_params = any(n == "build_params" or t == "BuildParams" for n, t in kinds)
            if (takes_graph and takes_params and not node.name.startswith("_")
                    and node.name not in allowed):
                found.append(f"{path.name}: {node.name}")
    assert found == []


def test_no_module_assigns_to_a_config_attribute():
    # load_config sets the config once; a command that needs other params
    # derives them (dataclasses.replace) and leaves the config as it was read.
    found = []
    for path in sorted((ROOT / "src" / "toponav").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AugAssign) else [])
            found += [f"{path.name}:{node.lineno}: assigns cfg.{n.attr}"
                      for t in targets for n in ast.walk(t) if isinstance(n, ast.Attribute)
                      and isinstance(n.value, ast.Name) and n.value.id == "cfg"]
    assert found == []


def test_the_package_runs_on_numpy_without_scipy():
    # scipy is a test dependency only: importing the package and its command
    # line loads none of it.
    code = ("import sys, toponav, toponav.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
