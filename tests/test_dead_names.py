"""src/charlie holds only the code that a charlie command runs.

Every definition in src/charlie must be reachable from cli.main through
src/charlie alone.  A definition is a top-level function, class, assigned
name or relative import of a module (so the package root's imports count),
or a member of one of its classes: a method, property or class attribute.
Dunders such as __init__ or __version__, which Python and tools call, are
exempt; a class that is reached reaches its dunders.

The walk starts at cli.main and at every module's top-level statements
that define nothing (they run on import).  A reached definition reaches
what its source refers to: a bare name defined or imported in its module,
`alias.name` through a module alias (`from . import closure as cl`), and
`obj.name` reaches every class member of that name, since the walk does not
infer types.  Test-only oracles live in tests/oracles.py.

The only other roots are the names that bench/ holds by name, read from the
AST of bench/tracer.py and bench/worker.py (bench/ is never imported or
changed here): every tuple of strings that names a definition, such as
("jetfield", "bracket") in the tracer's tables, and every attribute bench
reads, through a charlie module (`cli.build_parser`, `mods["exactring"]
.mono_diff`) or off a charlie object (`field.u_slot`).  So when the tracer
drops a name, its exception goes with it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = {p.stem: ast.parse(p.read_text(), filename=str(p))
         for p in sorted((ROOT / "src" / "charlie").glob("*.py"))}
BENCH = [ROOT / "bench" / "tracer.py", ROOT / "bench" / "worker.py"]


def _names(node) -> list:
    """The names a statement of a module or class body defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    if isinstance(node, ast.ImportFrom) and node.level and node.module:
        return [a.asname or a.name for a in node.names]
    return []


def _index():
    """{qualified name: (module, defining node)}, dunders left out, and
    {module: {alias: module it names}}."""
    defs, aliases = {}, {}
    for mod, tree in TREES.items():
        aliases[mod] = {a.asname or a.name: a.name for node in tree.body
                        if isinstance(node, ast.ImportFrom) and node.level and not node.module
                        for a in node.names}
        for node in tree.body:
            for name in _names(node):
                defs[f"{mod}.{name}"] = (mod, node)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    for name in _names(member):
                        defs[f"{mod}.{node.name}.{name}"] = (mod, member)
    return {k: v for k, v in defs.items() if not k.rpartition(".")[2].startswith("__")}, aliases


DEFS, ALIASES = _index()
MEMBERS: dict = {}
for _key in DEFS:
    if _key.count(".") == 2:
        MEMBERS.setdefault(_key.rpartition(".")[2], set()).add(_key)


def _refs(mod, node, modules) -> set:
    """Qualified names that the source of node, in module mod, refers to;
    modules maps each name that stands for a charlie module to it.  With
    mod None the source is bench's, where a tuple of strings also names a
    definition and mods["x"] stands for module x."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and mod and not isinstance(n.ctx, ast.Store):
            out.add(f"{mod}.{n.id}")
        elif isinstance(n, ast.Attribute):
            base = n.value
            if mod is None and isinstance(base, ast.Subscript) \
                    and isinstance(base.slice, ast.Constant):
                base = ast.Name(str(base.slice.value))
            if isinstance(base, ast.Name) and base.id in modules:
                out.add(f"{modules[base.id]}.{n.attr}")
            else:
                out |= MEMBERS.get(n.attr, set())
        elif isinstance(n, ast.ImportFrom) and n.level and n.module:
            out |= {f"{n.module}.{a.name}" for a in n.names}
        elif mod is None and isinstance(n, ast.Tuple) and n.elts and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in n.elts):
            out.add(".".join(e.value for e in n.elts))
    return out


def bench_roots() -> set:
    """The definitions bench/tracer.py and bench/worker.py hold by name; in
    bench a name that spells a charlie module stands for it."""
    modules = {stem: stem for stem in TREES}
    return {key for path in BENCH
            for key in _refs(None, ast.parse(path.read_text()), modules) if key in DEFS}


def reached(roots) -> set:
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in seen or key not in DEFS:
            continue
        seen.add(key)
        mod, node = DEFS[key]
        if key.count(".") == 2:
            todo.append(key.rpartition(".")[0])     # a member keeps its class
        if isinstance(node, ast.ImportFrom):
            name = key.rpartition(".")[2]
            todo += [f"{node.module}.{a.name}" for a in node.names if (a.asname or a.name) == name]
            continue
        parts = [node]
        if isinstance(node, ast.ClassDef):          # its bases and its dunders, not its members
            parts = [*node.bases, *node.keywords, *node.decorator_list,
                     *(s for s in node.body if all(n.startswith("__") for n in _names(s)))]
        for part in parts:
            todo += _refs(mod, part, ALIASES[mod])
    return seen


def _import_time_roots() -> set:
    return {key for mod, tree in TREES.items() for node in tree.body if not _names(node)
            for key in _refs(mod, node, ALIASES[mod])}


def test_every_definition_is_reachable_from_cli_main():
    live = reached({"cli.main", *_import_time_roots(), *bench_roots()})
    dead = sorted(set(DEFS) - live)
    assert not dead, f"unreachable from cli.main: {', '.join(dead)}"


def test_bench_roots_cover_the_tracer_tables():
    # the AST read agrees with the tables the tracer installs from
    from test_bench_contract import _tracer

    tracer = _tracer()
    tables = {".".join(row) for table in (tracer.SPAN_FUNCTIONS, tracer.SPAN_METHODS,
                                          tracer.COUNTED_FUNCTIONS) for row in table}
    assert tables and tables <= bench_roots()
