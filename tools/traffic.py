"""The library statements the benchmark's workloads never run.

    python3 tools/traffic.py [CHECKOUT]

CHECKOUT (by default the checkout this file is in) becomes the working
directory, its ``src/`` and ``perfbench/`` go first on the path, and
the standard library's ``trace`` module counts the lines run from
before ``fedswarm`` is imported, so module set-up is traced too. Each
of perfbench's workloads then runs as perfbench runs it:
``workloads.setup(name, DIGEST_SEED, Path(".bench_work"))``, one
``run_pass``, ``report_bytes`` and ``check``. The seed and the work
directory are perfbench's own, so the ingest manifest path echoed into
the report, and with it each report's digest, is the benchmark's. A
pass that fails its check aborts the listing (exit status 1).

The listing gives, per module and function, each simple statement
(one that holds no other statements) under the checkout's
``src/fedswarm`` that no workload ran: its line and its first line of
source. A statement counts as run when any line it spans ran;
docstrings and other bare constants, which compile to no code, are not
statements here. Run it in a fresh process: the tracer sees nothing of
a module imported before it.
"""

import argparse
import ast
import os
import sys
import trace
from pathlib import Path


def _blocks(node) -> list:
    """The statement lists directly inside ``node``."""
    blocks = [getattr(node, f, None) for f in ("body", "orelse", "finalbody")]
    blocks += [h.body for h in getattr(node, "handlers", ())]
    blocks += [c.body for c in getattr(node, "cases", ())]
    return [b for b in blocks if isinstance(b, list) and b]


def simple_statements(tree, scope: str = "<module>"):
    """(enclosing function or class, statement) of every simple statement
    under ``tree``; nested scopes are named ``Outer.inner``."""
    for node in tree.body if isinstance(tree, ast.Module) else tree:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring or a bare constant compiles to no code
        blocks = _blocks(node)
        if not blocks:
            yield scope, node
            continue
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = node.name if scope == "<module>" else f"{scope}.{node.name}"
        for block in blocks:
            yield from simple_statements(block, inner)


def unrun(root: Path, counts) -> list:
    """(module, scope, line, source) of each simple statement in the
    ``.py`` files under ``root`` that ``counts`` (``(file, line)`` of
    each line run, as ``trace.Trace(...).results().counts`` keys them)
    never reached, module by module in path order; the modules are
    named from ``root``'s own name down."""
    root = Path(root).resolve()
    rows = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        file = str(path)
        module = ".".join((root.name,) + path.relative_to(root).with_suffix("").parts)
        for scope, node in simple_statements(ast.parse(source)):
            if not any((file, n) in counts for n in range(node.lineno, node.end_lineno + 1)):
                rows.append((module, scope, node.lineno, lines[node.lineno - 1].strip()))
    return rows


def listing(rows) -> str:
    """``unrun`` rows as text: a module heading, a function heading, then
    one line per statement."""
    out, last = [], (None, None)
    for module, scope, lineno, text in rows:
        if module != last[0]:
            out.append(module)
        if (module, scope) != last:
            out.append(f"  {scope}")
        out.append(f"    {lineno:5d}  {text}")
        last = (module, scope)
    return "\n".join(out) + "\n" if out else ""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    root = p.parse_args(argv).checkout.resolve()
    if "fedswarm" in sys.modules:
        print("traffic: fedswarm is already imported, so its set-up would go unseen",
              file=sys.stderr)
        return 2
    os.chdir(root)
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    def passes() -> int:
        import workloads  # perfbench's, which imports fedswarm

        for name in workloads.NAMES:
            w = workloads.setup(name, workloads.DIGEST_SEED, Path(".bench_work"))
            out = workloads.run_pass(w)
            problems = workloads.check(w, out, workloads.report_bytes(w, out), None)
            for problem in problems:
                print(f"traffic: {name} failed its check: {problem}", file=sys.stderr)
            if problems:
                return 1
        return 0

    tracer = trace.Trace(count=1, trace=0)
    if tracer.runfunc(passes):
        return 1
    library = root / "src" / "fedswarm"
    rows = unrun(library, tracer.results().counts)
    total = len(unrun(library, {}))  # with nothing run, every statement is listed
    sys.stdout.write(listing(rows))
    print(f"{total - len(rows)} of {total} library statements ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
