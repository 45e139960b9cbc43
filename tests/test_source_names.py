"""Every public top-level name of the package is read by code under src/.

A name that only the tests read is a helper of the tests and lives in
them.  The walk is by ``ast``: a module-level def, class or assignment in
``src/phonondd/*.py`` whose name does not start with an underscore must be
loaded somewhere in its own module or imported from it by another module
of the package (an ``import ... as`` alias counts as a read of the
original name).
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "phonondd"

# unread names kept on purpose, each with its reason
EXEMPT = {
    "decoupling_failures": "the kick-balance verdict of a schedule; only the"
                           " tests call it until the run trace reports it"
                           " (ROADMAP item 1a-i)",
}


def parse_package() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SOURCE.glob("*.py"))}


def reads(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of every name loaded in its module or imported from it."""
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                read.update((source, alias.name) for alias in node.names)
    return read


def is_command(node: ast.stmt) -> bool:
    """Whether a def is a click command or group, which click runs by its
    decorator rather than by its name."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in getattr(node, "decorator_list", ()))


def public_names(tree: ast.Module):
    """(name, node) of each public module-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def unread_names() -> list[tuple[str, str]]:
    trees = parse_package()
    read = reads(trees)
    return [(module, name) for module, tree in trees.items()
            for name, node in public_names(tree)
            if (module, name) not in read and not is_command(node)]


def test_every_public_top_level_name_is_read_under_src():
    unread = [f"{module}.{name}" for module, name in unread_names()
              if name not in EXEMPT]
    assert not unread, f"read by no code under src/: {', '.join(unread)}"


def test_every_exemption_is_still_unread():
    # an exempt name that gains a caller, or is gone, leaves the list
    assert sorted(EXEMPT) == sorted(name for _, name in unread_names()
                                    if name in EXEMPT)


def test_the_walk_sees_the_commands_and_an_aliased_import():
    trees = parse_package()
    commands = {name for name, node in public_names(trees["cli"]) if is_command(node)}
    assert {"run", "sweep", "catalog", "report", "pulse_design"} <= commands
    # cli.py imports scenarios.sweep as run_sweep
    assert ("scenarios", "sweep") in reads(trees)
