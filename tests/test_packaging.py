import ast
import importlib.util
import os
import subprocess
import sys
from enum import Enum
from pathlib import Path

import pytest

import adaptivecc


def test_import_needs_no_numpy():
    # The package has no runtime dependencies; importing it must not pull
    # numpy back in through any module.
    src = str(Path(adaptivecc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import adaptivecc, sys; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        timeout=60,
    )


def test_every_public_name_resolves():
    # `from adaptivecc import *` fails on any stale __all__ entry.
    missing = [name for name in adaptivecc.__all__ if not hasattr(adaptivecc, name)]
    assert not missing, missing


def test_single_threaded_layers_import_no_threading():
    # One threading story: every module runs on one thread, driven by the one
    # discrete-event loop on a virtual clock.  No module imports threading or
    # time, so neither a wall-clock pacer nor a wall-clock stamp can come back.
    package = Path(adaptivecc.__file__).resolve().parent
    modules = sorted(path.stem for path in package.glob("*.py"))
    assert {"engine", "locks", "semantic", "simclock", "harness", "cli", "store"} <= set(modules)
    for module in modules:
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                roots = {(node.module or "").split(".")[0]}
            else:
                continue
            assert not roots & {"threading", "time"}, f"{module}:{node.lineno} imports {roots}"


# The modules a replay runs.  classify and cli run once per command, so an
# enum lookup there costs nothing per operation and they are not scanned.
_REPLAY_MODULES = (
    "engine", "locks", "semantic", "store", "harness", "adaptation", "metrics", "simclock", "sg",
)


def _enum_lookups_in_function_bodies(source, namespace):
    # (line, column, "Name.ATTR") of each attribute load, inside a function
    # or lambda body, whose Name is bound to an Enum subclass in
    # ``namespace``.  Defaults, decorators and class bodies run once, so
    # they are not scanned.
    enums = {
        name for name, value in namespace.items()
        if isinstance(value, type) and issubclass(value, Enum)
    }
    bodies = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bodies.extend(node.body)
        elif isinstance(node, ast.Lambda):
            bodies.append(node.body)
    return sorted({
        (sub.lineno, sub.col_offset, f"{sub.value.id}.{sub.attr}")
        for body in bodies
        for sub in ast.walk(body)
        if isinstance(sub, ast.Attribute)
        and isinstance(sub.ctx, ast.Load)
        and isinstance(sub.value, ast.Name)
        and sub.value.id in enums
    })


def test_replay_modules_look_up_no_enum_member_per_call():
    # On CPython 3.11, EnumType defines __getattr__, so every load of a
    # class attribute such as CCClass.P runs a Python-level hook (about ten
    # times a global load).  The replay modules bind the members they use to
    # module-level names once and use those names in function bodies.  The
    # enum classes are the ones each imported module binds, not a list kept
    # here.
    found = {}
    for name in _REPLAY_MODULES:
        module = importlib.import_module(f"adaptivecc.{name}")
        source = Path(module.__file__).read_text(encoding="utf-8")
        sites = _enum_lookups_in_function_bodies(source, vars(module))
        if sites:
            found[name] = sites
    assert not found, found


def test_the_enum_lookup_scan_finds_every_lookup_in_a_body():
    source = (
        "from enum import Enum\n"
        "class Color(Enum):\n"
        "    RED = 1\n"
        "DEFAULT = Color.RED\n"
        "def paint(color=Color.RED):\n"
        "    return color is Color.RED or (lambda: Color.RED)()\n"
    )
    namespace = {}
    exec(compile(source, "painted.py", "exec"), namespace)
    assert _enum_lookups_in_function_bodies(source, namespace) == [
        (6, 20, "Color.RED"),
        (6, 42, "Color.RED"),
    ]


def test_harness_wires_one_engine_and_controller():
    # The scripted scenario replays through ExperimentRunner; a second
    # hand-wired engine/controller/scheduler must not come back.
    package = Path(adaptivecc.__file__).resolve().parent
    tree = ast.parse((package / "harness.py").read_text(encoding="utf-8"))
    calls = [
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert {name: calls.count(name) for name in ("Engine", "Controller", "Scheduler")} == {
        "Engine": 1,
        "Controller": 1,
        "Scheduler": 1,
    }


@pytest.mark.parametrize("conf", ["deck.conf", "hot_w2.conf"])
def test_bench_configs_build_a_runner_as_make_runner_does(conf):
    # bench/workloads.make_runner passes exactly these three build_run kwargs
    # to ExperimentRunner; deck.conf has no tw_ms key.
    from adaptivecc import cli
    from adaptivecc.harness import ExperimentRunner

    text = (Path(__file__).resolve().parent.parent / "bench" / conf).read_text(encoding="utf-8")
    profile, adapt_config, kwargs = cli.build_run(cli.parse_config(text))
    runner = ExperimentRunner(
        profile,
        adapt_config,
        engine_mode=kwargs["engine_mode"],
        op_cost_ms=kwargs["op_cost_ms"],
        tw_ms=kwargs["tw_ms"],
    )
    assert runner.tw_ms == 100.0


def test_sg_check_calls_the_names_the_benchmark_wraps():
    # bench/spans.py times sg-check by replacing cli.build_serialization_graph,
    # cli.find_cycle and cli.read_trace_csv; a call through another name
    # would drop out of the traced run's spans.
    from adaptivecc import cli, sg

    assert cli.read_trace_csv is sg.read_trace_csv
    package = Path(adaptivecc.__file__).resolve().parent
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    (command,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_cmd_sg_check"
    ]
    called = {
        node.func.id
        for node in ast.walk(command)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert {"build_serialization_graph", "find_cycle"} <= called


def _load_by_path(name, path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_span_wrappers_resolve_and_restore(monkeypatch):
    # bench/spans.py wraps adaptivecc names (class attributes and module
    # globals) by name.  Every name it wraps must still exist on its owner,
    # and restore() must put every original back.
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.setattr(sys, "path", list(sys.path))  # workloads.py prepends src
    _load_by_path("workloads", bench / "workloads.py", monkeypatch)
    spans = _load_by_path("spans", bench / "spans.py", monkeypatch)
    rec = spans.SpanRecorder()
    try:
        spans.instrument(rec)
        patched = list(rec._patches)
        assert len(patched) == len(rec.names) > 0
        for owner, attr, saved in patched:
            assert saved is not spans._MISSING, f"{owner!r} has no {attr} of its own"
            assert getattr(owner, attr).__wrapped__ is saved
    finally:
        rec.restore()
    for owner, attr, saved in patched:
        assert vars(owner)[attr] is saved, f"{owner!r}.{attr} was not restored"
