"""Every definition in the package serves the CLI or the benchmark.

The walk starts at `cli.main`, at every identifier of `bench/*.py` (names,
attribute names, imported names, and identifier strings, by which the
tracer looks functions up) and at every module-level statement that runs
on import, such as a check called at module level.  A reached definition
reaches each definition of the package whose name it reads; names are
matched across modules, so the walk errs towards reaching too much.  The
definitions are the module-level functions, classes and assigned names,
and the methods of classes other than the dunder ones.  A method is
reached only through an attribute read (or an identifier string) of its
name, from code that also reaches its class: a plain function of the same
name, anywhere, does not reach it.  Code that only the tests call belongs
in `tests/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cfshrink"
BENCH = ROOT / "bench"

# definitions kept without a caller, each with its reason
ALLOWED = {
    "targets.growth_rate": "the growth rates the full-alphabet pressure roots are to take "
    "(ROADMAP, open item 1); its UndefinedForZeroTarget is reached through it",
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _reads(node):
    """The names a node reads, and the attribute names it reads marked by a
    leading dot."""
    return {n.id if isinstance(n, ast.Name) else "." + n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _definitions(path):
    """The module's definitions as (key, name, names read, owning class key),
    and the names its other module-level statements read."""
    mod = path.stem
    defs, loose = [], set()
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((f"{mod}.{node.name}", node.name, _reads(node), None))
        elif isinstance(node, ast.ClassDef):
            key, body = f"{mod}.{node.name}", set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(item.name):
                    defs.append((f"{key}.{item.name}", item.name, _reads(item), key))
                else:
                    body |= _reads(item)
            for part in node.decorator_list + node.bases + node.keywords:
                body |= _reads(part)
            defs.append((key, node.name, body, None))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for elt in target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]:
                    if not isinstance(elt, ast.Name):
                        loose |= _reads(elt)
                    elif not _dunder(elt.id):
                        defs.append((f"{mod}.{elt.id}", elt.id, _reads(node.value), None))
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            loose |= _reads(node)
    return defs, loose


def _bench_names(paths):
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names |= _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names |= {node.value, "." + node.value}
    return names


def unreached(src_paths, bench_paths, roots):
    """Keys of the definitions that neither the root keys nor the bench files reach."""
    defs, names = [], _bench_names(bench_paths)
    for path in src_paths:
        found, loose = _definitions(path)
        defs += found
        names |= loose
    missing = set(roots) - {key for key, *_ in defs}
    if missing:
        raise ValueError(f"roots that are not definitions: {sorted(missing)}")
    reached, grew = set(), True
    while grew:
        grew = False
        for key, name, reads, owner in defs:
            if owner is None:
                read = name in names or "." + name in names
            else:  # a method, read as an attribute once its class is reached
                read = "." + name in names and owner in reached
            if key not in reached and (key in roots or read):
                reached.add(key)
                names |= reads
                grew = True
    return sorted({key for key, *_ in defs} - reached)


def test_every_definition_is_reached():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no modules found under {SRC}"
    found = unreached(files, sorted(BENCH.glob("*.py")), {"cli.main", *ALLOWED})
    assert not found, f"reached from neither cli.main nor bench/: {found}"


def test_the_walk_sees_unreached_code(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from math import inf\n"
        "LIMIT, SPARE = 3, 4\n"
        "def main():\n    return helper(LIMIT)\n"
        "def helper(x):\n    return Box(x).size()\n"
        "def dead():\n    return inf\n"
        "def checked():\n    return 1\n"
        "checked()\n"
        "def traced():\n    return 2\n"
        "class Box:\n"
        "    def __init__(self, x):\n        self.x = x\n"
        "    def size(self):\n        return self.x\n"
        "    def volume(self):\n        return self.x ** 3\n"
    )
    bench = tmp_path / "job.py"
    # a bench function named like a method does not reach the method
    bench.write_text("import probe\nfn = getattr(probe, 'traced')\n"
                     "def volume():\n    return 0\nvolume()\n")
    assert unreached([src], [bench], {"probe.main"}) == ["probe.Box.volume", "probe.SPARE", "probe.dead"]
    assert unreached([src], [], {"probe.dead"}) == [
        "probe.Box", "probe.Box.size", "probe.Box.volume", "probe.LIMIT", "probe.SPARE",
        "probe.helper", "probe.main", "probe.traced"]
