"""What the production modules hold beyond the subcommands' code, and the
names that the benchmark harness looks up in the package.

tests/replay_golden.py replays the golden corpus under a profiler and
prints each function outside oracle.py that no entry called.  That list
must equal tests/golden/unreached.txt, where each function carries the
reason it has not moved beside the production path (the file's header
lists them).  The list may only shrink: MAX_UNREACHED is its length when
the check was added.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import replay_golden

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thetaparam"
PERFBENCH = ROOT / "perfbench"
MAX_UNREACHED = 84


def _allow_list() -> dict:
    """module:qualname -> reason, from tests/golden/unreached.txt."""
    out = {}
    for line in (ROOT / "tests" / "golden" / "unreached.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            name, reason = line.split(" ", 1)
            assert name not in out, name
            out[name] = reason
    return out


def _replay() -> list:
    """The lines that tests/replay_golden.py prints, from a fresh process:
    in this one, warm lru_cache entries would hide functions a cold entry
    runs."""
    proc = subprocess.run(
        [sys.executable, "-S", str(ROOT / "tests" / "replay_golden.py")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def _functions(module: str) -> dict:
    """qualname -> FunctionDef of each function and method of a module."""
    return {name: node for name, node, _ in replay_golden.functions(PACKAGE / f"{module}.py")}


def _referenced(fn: ast.FunctionDef) -> set:
    """The names and attribute names that the body of fn mentions."""
    out = set()
    for stmt in fn.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def _spans_tables() -> dict:
    """BOUNDARIES, METHOD_BOUNDARIES and CACHES of perfbench/spans.py, read
    without running the harness."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and node.targets[0].id in ("BOUNDARIES", "METHOD_BOUNDARIES", "CACHES")
    }


def _spans_names() -> set:
    """(module, qualname) of each name that spans.py looks up."""
    tables = _spans_tables()
    return (
        {(mod, attr) for mod, attr, _ in tables["BOUNDARIES"]}
        | {(mod, f"{cls}.{attr}") for mod, cls, attr, _ in tables["METHOD_BOUNDARIES"]}
        | {(mod, name) for mod, name in tables["CACHES"]}
    )


def _imported_names(path: Path) -> set:
    """(module, name) of each `from thetaparam.X import Y` in the file, and of
    each attribute looked up on a module bound by `from thetaparam import X`."""
    tree = ast.parse(path.read_text())
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("thetaparam"):
            for alias in node.names:
                names.add((node.module, alias.name))
                if node.module == "thetaparam":
                    modules[alias.asname or alias.name] = f"thetaparam.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.add((modules[node.value.id], node.attr))
    return names


def test_golden_replay_leaves_only_the_allow_list_unreached():
    lines = _replay()
    rows = [line.split(" ") for line in lines[:-1]]
    allowed = _allow_list()
    assert {name for name, _ in rows} == set(allowed)
    total = sum(int(count) for _, count in rows)
    assert lines[-1] == f"unreached: {len(rows)} functions, {total} lines"
    assert len(allowed) <= MAX_UNREACHED


def test_allow_list_reasons_hold():
    allowed = _allow_list()
    spans = _spans_names()
    worker = _imported_names(PERFBENCH / "worker.py")
    oracle = {f"oracle:{name}": fn for name, fn in _functions("oracle").items()}
    functions = {
        f"{module}:{name}": fn
        for module in {entry.split(":")[0] for entry in allowed}
        for name, fn in _functions(module).items()
    }
    for entry, reason in allowed.items():
        module, qualname = entry.split(":")
        parts = qualname.split(".")
        if reason == "spans":
            assert (f"thetaparam.{module}", qualname) in spans, entry
        elif reason == "worker":
            assert (f"thetaparam.{module}", qualname) in worker, entry
        elif reason == "dunder":
            assert parts[-1].startswith("__") and parts[-1].endswith("__"), entry
        else:
            assert reason.startswith("callee of "), entry
            caller = reason[len("callee of "):]
            assert caller in allowed or caller in oracle, entry
            callee = parts[-2] if parts[-1] == "__init__" else parts[-1]
            assert callee in _referenced({**functions, **oracle}[caller]), entry
            # the chain of callers ends at a pinned entry or in oracle.py
            seen = {entry}
            while allowed.get(caller, "").startswith("callee of "):
                assert caller not in seen, entry
                seen.add(caller)
                caller = allowed[caller][len("callee of "):]


def test_names_the_harness_looks_up_resolve():
    """Every name that perfbench/spans.py patches or reads, and every name
    that a perfbench script imports from the package, exists."""
    tables = _spans_tables()
    for mod, attr, _ in tables["BOUNDARIES"]:
        assert callable(getattr(importlib.import_module(mod), attr)), (mod, attr)
    for mod, cls, attr, _ in tables["METHOD_BOUNDARIES"]:
        assert callable(getattr(getattr(importlib.import_module(mod), cls), attr)), (mod, cls, attr)
    for mod, name in tables["CACHES"]:
        assert hasattr(getattr(importlib.import_module(mod), name), "cache_info"), (mod, name)
    imported = set().union(*(_imported_names(path) for path in PERFBENCH.glob("*.py")))
    assert imported
    for mod, name in imported:
        if mod == "thetaparam":
            importlib.import_module(f"{mod}.{name}")
        else:
            assert hasattr(importlib.import_module(mod), name), (mod, name)
