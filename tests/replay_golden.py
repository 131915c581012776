"""Replay the golden CLI corpus in one process, and list the production
functions that no entry ran.

Run from the repository root, with the standard library only:

    PYTHONPATH=src python -S tests/replay_golden.py

It does three things, and exits non-zero with a message on the first
failure:

1. It runs every entry of tests/golden/corpus.jsonl through ``cli.main``
   and checks the exit code and the report byte for byte.  The entries must
   use the exit codes 0, 1 and 2 between them, and the replay must load
   none of numpy, jsonschema and thetaparam.finitetheta.
2. Under ``sys.setprofile`` it records the code object of every Python
   call, from the import of the CLI on.
3. It prints each function of the package outside ``oracle.py`` that no
   entry called, as ``module:qualname lines``, then the totals.  A
   function nested in an uncalled one is counted in its lines, not listed.

A function is matched to its code object on (file, ``co_firstlineno``),
against both the ``def`` line and the first decorator's line as ``ast``
gives them, since Python versions differ in which one a decorated
function's code object starts at.  Run it in a fresh process: warm
``lru_cache`` entries would hide functions that a cold entry runs.
"""

import ast
import contextlib
import io
import json
import os
import sys
import tempfile

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "corpus.jsonl")
UNLOADED = ("numpy", "jsonschema", "thetaparam.finitetheta")


def replay(entries) -> set:
    """Run every entry, check its code and report, and return the code
    objects that ran."""
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from thetaparam import cli

        with tempfile.TemporaryDirectory() as tmp:
            for entry in entries:
                paths = [os.path.join(tmp, f"doc{i}.json") for i in range(len(entry["docs"]))]
                report = entry["report"]
                for i, (path, text) in enumerate(zip(paths, entry["docs"])):
                    with open(path, "w") as fh:
                        fh.write(text)
                    report = report.replace(f"{{{i}}}", json.dumps(path)[1:-1])
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main([a.format(*paths) for a in entry["argv"]])
                if (code, out.getvalue()) != (entry["code"], report):
                    sys.exit(f"{entry['argv']} differs from its golden report")
    finally:
        sys.setprofile(None)
    return ran


def functions(path) -> list:
    """(qualname, FunctionDef, nested functions in the same form) of each
    top-level function and method of the module at path."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + node.name
                yield name, node, list(walk(node.body, f"{name}.<locals>."))

    with open(path) as fh:
        return list(walk(ast.parse(fh.read()).body, ""))


def unreached(ran: set, package_dir: str):
    """(module:qualname, lines) of each function outside oracle.py whose code
    object never ran, outermost first; a nested function is listed only when
    the function around it ran."""
    starts = {(os.path.abspath(c.co_filename), c.co_firstlineno) for c in ran}
    out = []

    def visit(module, path, entries):
        for name, node, nested in entries:
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if (path, first) in starts or (path, node.lineno) in starts:
                visit(module, path, nested)
            else:
                out.append((f"{module}:{name}", node.end_lineno - first + 1))

    for fname in sorted(os.listdir(package_dir)):
        if fname.endswith(".py") and fname != "oracle.py":
            path = os.path.abspath(os.path.join(package_dir, fname))
            visit(fname[:-3], path, functions(path))
    return out


def main() -> int:
    with open(CORPUS) as fh:
        entries = [json.loads(line) for line in fh]
    ran = replay(entries)
    if {entry["code"] for entry in entries} != {0, 1, 2}:
        sys.exit("the golden entries do not use exit codes 0, 1 and 2 between them")
    loaded = [m for m in UNLOADED if m in sys.modules]
    if loaded:
        sys.exit(f"the replay loaded {', '.join(loaded)}")
    package_dir = os.path.dirname(sys.modules["thetaparam"].__file__)
    rows = unreached(ran, package_dir)
    for name, count in rows:
        print(f"{name} {count}")
    print(f"unreached: {len(rows)} functions, {sum(count for _, count in rows)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
