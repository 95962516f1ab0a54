"""The benchmark's hooks into the package.

`bench/tracer.py` wraps module attributes by name and `bench/workloads.py`
calls `toponav.cli` helpers and config attributes.  These tests fail when a
refactor drops or renames one of them, instead of the benchmark run.
"""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import toponav.cli
from toponav.cli import load_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_wraps_and_restores_every_binding():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, attr) for module, attr, _, _ in tracer.LAYERS]
    originals = [_resolve(*n) for n in names]
    t = tracer.Tracer(tracer.LAYERS).install()
    try:
        assert all(_resolve(*n) is not o for n, o in zip(names, originals))
    finally:
        t.uninstall()
    assert all(_resolve(*n) is o for n, o in zip(names, originals))


def test_workloads_use_existing_cli_names():
    text = (BENCH / "workloads.py").read_text()
    helpers = set(re.findall(r"\bcli\.(\w+)", text))
    assert {"load_config", "make_grid", "main"} <= helpers
    assert [h for h in helpers if not hasattr(toponav.cli, h)] == []
    attrs = set(re.findall(r"\bcfg\.(\w+)", text))
    assert {"build_params", "limits", "loops"} <= attrs
    cfg = load_config(None)
    assert [a for a in attrs if not hasattr(cfg, a)] == []


def test_benchmark_self_check_passes():
    # bench/checks.py builds observations, graphs and beliefs with the
    # package's constructors, which no other test runs through the bench.
    run = subprocess.run([sys.executable, str(BENCH / "run.py"), "--self-check"],
                         cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    verdicts = [ln.split()[-1] for ln in run.stdout.splitlines() if ln.startswith("self-check")]
    assert verdicts == ["ok"] * 5
