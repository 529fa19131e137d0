"""Source hygiene of src/breakcalc, read with ast: no unused import, no
unreferenced private top-level name or private method, no nested function
that the function enclosing it never refers to."""

import ast
import graphlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "breakcalc"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def loaded_names(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read in node, outside the subtree skip; an attribute counts as
    a read of its name too, so that `module._name` refers to _name."""
    out, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return out


def nested_functions(fn: ast.AST):
    """The functions defined in fn's body, not inside a further function."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        n = stack.pop()
        if isinstance(n, FUNCTIONS):
            yield n
        else:
            stack.extend(ast.iter_child_nodes(n))


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__.py"])
def test_every_imported_name_is_used(name):
    tree = MODULES[name]
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    assert sorted(imported - loaded_names(tree)) == []


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


#: Private methods that src/breakcalc never names, as (module, class,
#: method), each called from outside it: namedtuple's _replace and copy
#: build a node through _make.
HOOKS = {("syntax.py", "Node", "_make")}


def test_every_private_top_level_name_is_referenced():
    referenced = set().union(*map(loaded_names, MODULES.values()))
    referenced |= {alias.name for tree in MODULES.values()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names}
    unreferenced = []
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            unreferenced += [(module, n) for n in names
                             if is_private(n) and n not in referenced]
        unreferenced += [(module, cls.name, fn.name)
                         for cls in ast.walk(tree)
                         if isinstance(cls, ast.ClassDef)
                         for fn in cls.body if isinstance(fn, FUNCTIONS)
                         and is_private(fn.name) and fn.name not in referenced
                         and (module, cls.name, fn.name) not in HOOKS]
    assert unreferenced == []


def test_every_nested_function_is_referenced_by_its_encloser():
    unreferenced = [(module, fn.name, inner.name)
                    for module, tree in MODULES.items()
                    for fn in ast.walk(tree) if isinstance(fn, FUNCTIONS)
                    for inner in nested_functions(fn)
                    if inner.name not in loaded_names(fn, skip=inner)]
    assert unreferenced == []


#: Each private name that one module of src/breakcalc imports from another,
#: as (importer, module, name).  A new one fails the test until it is
#: listed here, and CHANGES.md says why the two modules share it.
PRIVATE_IMPORTS = {
    ("reduction.py", "syntax", "_freshen"),
    ("reduction.py", "syntax", "_rebuild"),
    ("sequent.py", "syntax", "_PARSED"),
    ("sequent.py", "syntax", "_canonical_names"),
    ("sequent.py", "syntax", "_remember_last"),
    ("typecheck.py", "syntax", "_canonical_names"),
    ("typecheck.py", "syntax", "_remember_last"),
}


def test_cross_module_private_imports_are_the_listed_ones():
    imported = {(module, node.module, alias.name)
                for module, tree in MODULES.items()
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if alias.name.startswith("_") and node.module != "__future__"}
    assert imported == PRIVATE_IMPORTS


#: Each module that one module of src/breakcalc imports from, at the top or
#: inside a function, as (importer, module).  A new edge fails the test until
#: it is listed here, and CHANGES.md says why the importer needs the module.
IMPORT_EDGES = {
    ("__init__.py", "catalog"), ("__init__.py", "lambda_pair"),
    ("__init__.py", "parser"), ("__init__.py", "printer"),
    ("__init__.py", "reduction"), ("__init__.py", "sequent"),
    ("__init__.py", "syntax"), ("__init__.py", "typecheck"),
    ("catalog.py", "parser"), ("catalog.py", "syntax"),
    ("cli.py", "catalog"), ("cli.py", "lambda_pair"), ("cli.py", "parser"),
    ("cli.py", "printer"), ("cli.py", "reduction"), ("cli.py", "sequent"),
    ("cli.py", "syntax"), ("cli.py", "typecheck"),
    ("lambda_pair.py", "reduction"), ("lambda_pair.py", "syntax"),
    ("parser.py", "syntax"),
    ("printer.py", "syntax"),
    ("reduction.py", "printer"), ("reduction.py", "syntax"),
    ("sequent.py", "parser"), ("sequent.py", "syntax"),
    ("sequent.py", "typecheck"),
    ("typecheck.py", "syntax"),
}


def import_edges() -> set[tuple[str, str]]:
    """(importer, module) for each relative import in src/breakcalc; a bare
    `from . import x` imports module x."""
    return {(module, target)
            for module, tree in MODULES.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for target in ([node.module] if node.module
                           else [alias.name for alias in node.names])}


def test_module_imports_are_the_listed_ones():
    assert import_edges() == IMPORT_EDGES


def test_module_import_graph_is_acyclic():
    sorter = graphlib.TopologicalSorter()
    for importer, target in import_edges():
        sorter.add(importer.removesuffix(".py"), target)
    sorter.prepare()  # raises CycleError, naming a cycle, if there is one


def rule_name_reads() -> list[tuple[str, str, str]]:
    """(module, top-level statement, member) for each RuleName.<member> read
    in src/breakcalc, the statement named by what it defines."""
    reads = []
    for module, tree in MODULES.items():
        for stmt in tree.body:
            if isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
                where = stmt.name
            else:
                where = ",".join(t.id for t in getattr(stmt, "targets", ())
                                 if isinstance(t, ast.Name))
            reads += [(module, where, n.attr) for n in ast.walk(stmt)
                      if isinstance(n, ast.Attribute)
                      and isinstance(n.value, ast.Name)
                      and n.value.id == "RuleName"]
    return reads


def test_rule_names_are_read_only_in_the_rule_tables():
    """A rule is spelled in one place: RuleName's members are read only in
    the enum and in reduction's rule table, once each, and once in
    lambda_pair, for the beta record its table shares; so a per-rule branch
    anywhere else fails."""
    enum = next(stmt for stmt in MODULES["reduction.py"].body
                if isinstance(stmt, ast.ClassDef) and stmt.name == "RuleName")
    members = [t.id for stmt in enum.body if isinstance(stmt, ast.Assign)
               for t in stmt.targets]
    reads = [r for r in rule_name_reads()
             if r[:2] != ("reduction.py", "RuleName")]
    assert sorted(reads) == sorted(
        [("lambda_pair.py", "L_RULES", "BETA")]
        + [("reduction.py", "RULES", member) for member in members])


def sites(found) -> list[tuple[str, str]]:
    """(module, dotted name of the enclosing class and function) for each
    node of src/breakcalc's syntax trees for which found(node) holds."""
    out, stack = [], [(tree, module, "") for module, tree in MODULES.items()]
    while stack:
        node, module, where = stack.pop()
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        elif found(node):
            out.append((module, where))
        stack += [(c, module, where) for c in ast.iter_child_nodes(node)]
    return out


def forget_calls() -> list[tuple[str, str]]:
    """The sites of each call of a method named forget."""
    return sites(lambda node: isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "forget")


def test_memo_entries_are_forgotten_only_by_the_trace_printer():
    """Each node memo's entry holds its node, so an id is never reused
    while the entry lives and no memo needs to forget for correctness.
    Only the trace printer's memos hold text, so only they forget: per
    step, format_trace names the nodes the step took out and
    TermPrinter.forget passes them to its two memos.  A forget call
    anywhere else, such as a list of replaced nodes kept by reduction,
    fails."""
    assert sorted(forget_calls()) == [
        ("printer.py", "TermPrinter.forget"),
        ("printer.py", "TermPrinter.forget"),
        ("reduction.py", "format_trace"),
    ]


def test_only_the_rebuild_step_builds_a_term_past_its_constructor():
    """tuple.__new__ builds a node without its constructor's checks, which
    is safe only where a node keeps the names that a constructor checked
    and gets new children: syntax's _rebuild and replace_child.  Any other
    use, such as in erase, the translation or the parser, fails."""
    assert sorted(sites(lambda node: isinstance(node, ast.Attribute)
                        and node.attr == "__new__"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "tuple")) == [
        ("syntax.py", "_rebuild"),
        ("syntax.py", "_rebuild"),
        ("syntax.py", "replace_child"),
    ]
