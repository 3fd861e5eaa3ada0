"""Source hygiene checks over the package, with the standard library's ast
module only (no linter is a dependency)."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gradedrings"
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names a module imports but never reads; __future__ imports are
    compiler directives and exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source: str) -> list:
    """(function, line) of each import statement inside a function body."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [(node.name, n.lineno) for n in ast.walk(node)
                    if isinstance(n, (ast.Import, ast.ImportFrom))]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert function_imports(path.read_text()) == []


# the classes whose __eq__/__hash__ hold the one identity rule (same class,
# equal key) for groups, rings and subsets
IDENTITY_BASES = {"Group", "Ring", "SubsetPredicate"}


def identity_methods(source: str) -> dict:
    """Class name -> the subset of {__eq__, __hash__} it defines."""
    out = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            names = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            if names & {"__eq__", "__hash__"}:
                out[node.name] = names & {"__eq__", "__hash__"}
    return out


def test_equality_is_defined_once():
    """Only the identity bases define __eq__/__hash__, and each defines
    both, so concrete groups and rings get equality from their key."""
    found = {}
    for path in MODULES:
        found.update(identity_methods(path.read_text()))
    assert set(found) <= IDENTITY_BASES, sorted(set(found) - IDENTITY_BASES)
    assert all(m == {"__eq__", "__hash__"} for m in found.values()), found


def _load_perfbench(name: str, monkeypatch):
    """Import perfbench/<name>.py as it stands, under a private module name."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_targets_exist(monkeypatch):
    """The benchmark's tracer wraps library functions and methods by name;
    installing it fails if one of them moved or was renamed."""
    tracing = _load_perfbench("tracing", monkeypatch)
    workloads = _load_perfbench("workloads", monkeypatch)
    lib = workloads.load_library()
    original = lib.graded.psi_embedding_check
    tracer = tracing.Tracer(lib)
    try:
        tracer.install()
        assert lib.graded.psi_embedding_check is not original
    finally:
        tracer.uninstall()
    assert lib.graded.psi_embedding_check is original


def assert_statements(source: str) -> list:
    """Line numbers of the assert statements in a module."""
    return [n.lineno for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_in_library(path):
    """A soundness check must still run under python -O, which strips
    every assert statement."""
    assert assert_statements(path.read_text()) == []


# top-level names that no src/ module reads, each with the reason it stays
UNREAD_ALLOWED = {
    "truncate_certificate": "bench-bound: traced as a certificate transform",
    "twisted_system": "bench-bound: builds the rewrite workload's twisted ring",
    "injection_witness_from_json": "bench-bound: traced as a loader",
    "translation_certificate_to_json": "bench-bound: traced as a serializer",
    "finite_subset": "planned caller: verify of Folner files (ROADMAP item 3)",
    "tr_transpose": "planned caller: whole-group certificates (ROADMAP item 6)",
}


def unread_definitions(sources: dict) -> list:
    """(module, name) of each top-level function or class that no module
    reads as a Name or an Attribute."""
    defined, read = [], set()
    for filename, source in sources.items():
        tree = ast.parse(source)
        defined += [(filename, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return [(f, name) for f, name in defined if name not in read]


def test_every_definition_is_reached():
    """Library code that nothing in src/ uses is deleted, not kept for tests;
    the allowlist names each exception and why it stays."""
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    unread = unread_definitions(sources)
    assert [d for d in unread if d[1] not in UNREAD_ALLOWED] == []
    assert sorted(name for _, name in unread) == sorted(UNREAD_ALLOWED)


# methods and properties that no src/ module reads, each with the reason it
# stays
UNREAD_METHODS_ALLOWED = {
    "entries": "bench-bound: read by the tracer's _note_mat_mul",
}


def unread_methods(sources: dict) -> list:
    """(module, class, name) of each non-dunder method or property of a
    class whose name no module reads as an Attribute."""
    defined, read = [], set()
    for filename, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                defined += [(filename, node.name, f.name) for f in node.body
                            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (f.name.startswith("__") and f.name.endswith("__"))]
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [d for d in defined if d[2] not in read]


def test_every_method_is_reached():
    """A method or property that nothing in src/ calls is a second form of
    something else, or dead; the allowlist names each exception."""
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    unread = unread_methods(sources)
    assert [d for d in unread if d[2] not in UNREAD_METHODS_ALLOWED] == []
    assert sorted(d[2] for d in unread) == sorted(UNREAD_METHODS_ALLOWED)


def _true_or_none(node) -> bool:
    """True, None, or a conditional expression choosing between them."""
    if isinstance(node, ast.IfExp):
        return _true_or_none(node.body) and _true_or_none(node.orelse)
    return isinstance(node, ast.Constant) and (node.value is True or node.value is None)


def false_check_writes(source: str) -> list:
    """(line, name) of each write outside Report.fail that could turn a
    check False: an attribute or a keyword argument named *_ok given
    anything but True, None or a conditional between them, and any setattr
    call."""
    tree = ast.parse(source)
    in_fail = {id(n) for c in ast.walk(tree)
               if isinstance(c, ast.ClassDef) and c.name == "Report"
               for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "fail"
               for n in ast.walk(f)}
    out = []
    for node in ast.walk(tree):
        if id(node) in in_fail:
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if isinstance(node, ast.AnnAssign) and node.value is None:
                continue
            if isinstance(node, ast.AugAssign) or not _true_or_none(node.value):
                out += [(node.lineno, n.attr) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Attribute) and n.attr.endswith("_ok")
                        and isinstance(n.ctx, ast.Store)]
        elif (isinstance(node, ast.keyword) and (node.arg or "").endswith("_ok")
              and not _true_or_none(node.value)):
            out.append((node.value.lineno, node.arg))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr"):
            out.append((node.lineno, "setattr"))
    return sorted(out)


def test_false_check_writes_are_found():
    source = """
def build(rep, x):
    rep.a_ok = x
    rep.b_ok = rep.c_ok = None
    rep.d_ok = True if x else None
    rep.e_ok, rep.f = False, 1
    rep.g_ok &= x
    Report(h_ok=x == 1, i_ok=True, j_ok=None if x else True)
    setattr(rep, "k_ok", False)

class Other:
    def fail(self, check, message):
        setattr(self, check, False)

class Report:
    def fail(self, check, message):
        setattr(self, check, False)
"""
    assert false_check_writes(source) == [(3, "a_ok"), (6, "e_ok"), (7, "g_ok"),
                                          (8, "h_ok"), (9, "setattr"), (13, "setattr")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_checks_fail_only_through_report_fail(path):
    """A check field starts True or None and turns False only through
    Report.fail, so no row can read FAIL without a line saying where."""
    assert false_check_writes(path.read_text()) == []


def undeclared_checks(source: str) -> list:
    """(class, name) of each *_ok field annotated in a class body with any
    value but a check(...) call, and (class, "CHECKS") for each class that
    assigns CHECKS: a check's label is declared with its field, once."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names, value = [stmt.target.id], stmt.value
            elif isinstance(stmt, ast.Assign):
                names, value = [t.id for t in stmt.targets if isinstance(t, ast.Name)], None
            else:
                continue
            out += [(node.name, "CHECKS") for name in names if name == "CHECKS"]
            if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id == "check"):
                out += [(node.name, name) for name in names if name.endswith("_ok")]
    return out


def test_undeclared_checks_are_found():
    source = """
class A(Report):
    a_ok: bool = check("a")
    b_ok: bool = True
    c_ok: bool
    d: int = 0
    e_ok = field(default=True)
    CHECKS = (("a_ok", "a"),)
"""
    assert undeclared_checks(source) == [("A", "b_ok"), ("A", "c_ok"), ("A", "e_ok"),
                                         ("A", "CHECKS")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_checks_are_declared_with_their_labels(path):
    """Every check field is declared with check(label), which holds its row
    label, and no class keeps a second table of the labels."""
    assert undeclared_checks(path.read_text()) == []


def test_package_root_defines_only_the_version():
    """Each name has one import path, its module: the package root
    re-exports nothing."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    body = [node for node in tree.body
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    assert [ast.unparse(node) for node in body] == ["__version__ = '0.1.0'"]
