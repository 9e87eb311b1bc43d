"""Source hygiene: every name a module imports, every module-level private
function and every module-level UPPER_CASE constant it defines, is used in
that module; imports sit at module level; every parameter of a module-level
private function is read; every private or constant name a docstring cites
is defined; every name the benchmark's tracer wraps exists and, but one,
is called by the pipeline; every export is reached outside the tests;
every dataclass is declared ``frozen=True``; only ``data_io`` writes
files, and every file is read in its one text reader; the package
imports exactly the third-party modules ``pyproject.toml`` declares; and
the CLI loads no scipy."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import osborn
from osborn import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "osborn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line}: {name}"
              for name, line in _imported_names(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def _names_outside(tree, skip):
    return {node.id for top in tree.body if top is not skip
            for node in ast.walk(top) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_functions(path):
    # a leftover helper fails here; a call from its own body does not count
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = [f"{path.name}:{node.lineno}: {node.name}" for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name.startswith("_") and not node.name.startswith("__")
              and node.name not in _names_outside(tree, node)]
    assert not unused, "unused private functions: " + ", ".join(unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    local = [f"{path.name}:{node.lineno}: in {fn.name}"
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not local, "function-local imports: " + ", ".join(local)


def _parameters(fn):
    a = fn.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_function_parameters_are_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = []
    for fn in tree.body:
        if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and fn.name.startswith("_") and not fn.name.startswith("__")):
            continue
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{fn.lineno}: {fn.name}({name})"
                   for name in _parameters(fn) if name not in read]
    assert not unread, "unread parameters: " + ", ".join(unread)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_constants(path):
    # every module-level UPPER_CASE name is read in its own module, so a
    # constant left behind by a removed code path fails here
    tree = ast.parse(path.read_text(encoding="utf-8"))
    targets = [t for node in tree.body
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for t in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [f"{path.name}:{t.lineno}: {t.id}" for t in targets
              if isinstance(t, ast.Name) and t.id.isupper() and t.id not in read]
    assert not unused, "unused module constants: " + ", ".join(unused)


def test_exports_match_imports():
    # __init__.py re-exports: every imported name is in __all__ and every
    # name in __all__ is imported, so a dead export fails here
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["__all__"])
    assert exported == sorted(set(exported))
    assert set(exported) == {name for name, _ in _imported_names(tree)}


def _tracing():
    """The benchmark's tracer module, ``bench/tracing.py``."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    # bench/run.py --trace 1 replaces each (module, attribute) of WRAPPED
    # with a timing wrapper, so a renamed or deleted attribute breaks the
    # traced benchmark; the tracer itself is not installed here
    tracing = _tracing()
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracing.WRAPPED
               if not callable(getattr(module, attr, None))]
    assert tracing.WRAPPED and not missing, "traced names missing: " + ", ".join(missing)


def test_every_traced_layer_is_called_by_the_pipeline(tmp_path, monkeypatch):
    # a wrapped name the CLI never calls reads a constant 0 in every traced
    # benchmark run; each stage runs in-process under the tracer's wrappers
    tracing = _tracing()
    tracer = tracing.Tracer()
    for module, attr, name, stats in tracing.WRAPPED:
        monkeypatch.setattr(module, attr, tracer._wrap(getattr(module, attr), name, stats))
    spec = tmp_path / "pool.spec"
    spec.write_text("num_models = 4\nfeature_dim = 3\nsource_classes = 3\n"
                    "target_classes = 3\nsamples = 24\nseed = 1\n"
                    "prediction_noise = 0.0;0.1;0.3;0.5\n")
    pool = str(tmp_path / "pool" / "pool.json")
    out = {name: str(tmp_path / f"{name}.csv")
           for name in ("entropic", "frobenius", "greedy", "exhaustive", "ranks", "report")}
    common = ["--pool", pool, "--cache", out["entropic"], "--k", "2"]
    for argv in (
        ["synth", "--spec", str(spec), "--out", str(tmp_path / "pool")],
        ["pairwise", "--pool", pool, "--out", out["entropic"]],
        ["pairwise", "--pool", pool, "--regularizer", "frobenius", "--out", out["frobenius"]],
        ["select", *common, "--strategy", "greedy", "--out", out["greedy"]],
        ["select", *common, "--strategy", "exhaustive", "--out", out["exhaustive"]],
        ["score", *common, "--proxy-accuracy", "--out", out["ranks"]],
        ["eval", "--rankings", out["ranks"], "--out", out["report"]],
    ):
        assert cli.main(argv) == 0, argv
    layers = {name for *_, name, _ in tracing.WRAPPED}
    uncalled = {name for name in layers if not tracer.sums[name + ".calls"]}
    # evaluation.evaluate takes both Kendall statistics from one concordance
    # count and does not call weighted_kendall_tau; dropping that wrap is a
    # change to the benchmark (CHANGES.md, the FOUND line on
    # weighted_kendall_tau; ROADMAP item 2)
    assert uncalled == {"evaluation.weighted_kendall_tau"}, sorted(uncalled)


def _names_used_outside_their_definitions():
    """Every name (or attribute) a module of the package other than
    ``__init__`` reads outside the top-level statement that defines it."""
    used = set()
    for path in MODULES:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            used |= {getattr(node, "id", None) or getattr(node, "attr", None)
                     for node in ast.walk(top)} - {getattr(top, "name", None)}
    return used


def _readme_code():
    """The text of every fenced block and inline code span of README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    fenced = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.S | re.M)
    rest = re.sub(r"^```[^\n]*\n.*?^```", "", text, flags=re.S | re.M)
    return fenced + re.findall(r"`([^`\n]+)`", rest)


def test_every_export_is_reached_outside_the_tests():
    # an export is used by the package or documented in README.md; one that
    # only the tests reach fails here
    reached = _names_used_outside_their_definitions()
    code = _readme_code()
    unreached = [name for name in osborn.__all__ if name not in reached
                 and not any(re.search(rf"\b{name}\b", span) for span in code)]
    assert not unreached, "exports reached only by tests: " + ", ".join(unreached)


_DOC_NAME = re.compile(r"``(_[A-Za-z]\w*|[A-Z][A-Z0-9_]+)``")


def _module_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_docstring_names_exist(path):
    # a docstring that names a ``_private`` helper or an ``UPPER_CASE``
    # constant names one this module defines, so a renamed or deleted one
    # fails here
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = _module_level_names(tree)
    docs = [ast.get_docstring(node) or "" for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))]
    missing = sorted({name for doc in docs for name in _DOC_NAME.findall(doc)
                      if name not in defined})
    assert not missing, f"{path.name} docstrings name undefined: " + ", ".join(missing)


def _is_frozen_dataclass(decorator):
    return (isinstance(decorator, ast.Call)
            and getattr(decorator.func, "id", None) == "dataclass"
            and any(kw.arg == "frozen" and getattr(kw.value, "value", None) is True
                    for kw in decorator.keywords))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_dataclass_is_frozen(path):
    # a value type is built and checked once; a mutable one could be changed
    # after its checks ran
    tree = ast.parse(path.read_text(encoding="utf-8"))
    mutable = [f"{path.name}:{node.lineno}: {node.name}"
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for dec in node.decorator_list
               if "dataclass" in ast.unparse(dec) and not _is_frozen_dataclass(dec)]
    assert not mutable, "dataclasses not declared frozen=True: " + ", ".join(mutable)


def _file_writes(tree):
    """Every call that opens a file for writing: ``open`` or ``fdopen`` with
    a mode that is not a read-only constant, or ``write_text``/``write_bytes``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in ("write_text", "write_bytes"):
            yield node
        elif name in ("open", "fdopen"):
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(mode.value) <= set("rbt")):
                yield node


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "data_io.py"],
                         ids=lambda p: p.name)
def test_only_data_io_writes_files(path):
    # every table goes through data_io.write_table, so its row format lives
    # in one place; the one exception is synth's pool.json, which is JSON
    tree = ast.parse(path.read_text(encoding="utf-8"))
    writes = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
              for node in _file_writes(tree)
              if not (path.name == "synth.py" and "pool.json" in ast.unparse(node))]
    assert not writes, "files written outside data_io: " + ", ".join(writes)


# calls that read a file other than through open(): pathlib's and numpy's
# path readers, and json's, numpy's or pickle's load
_FILE_READERS = ("read_text", "read_bytes", "fromfile", "genfromtxt", "load", "memmap")


def _file_reads(tree):
    """Every call that opens or loads a file for reading: ``open`` or
    ``fdopen`` with no mode or a read-only constant one, and each of
    ``_FILE_READERS``.  ``np.loadtxt`` is not counted: ``read_features``
    hands it decoded lines, not a path."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in _FILE_READERS:
            yield node
        elif name in ("open", "fdopen"):
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is None or (isinstance(mode, ast.Constant)
                                and set(mode.value) <= set("rbt")):
                yield node


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_file_is_read_by_the_data_io_text_reader(path):
    # every input is opened in data_io._read_text, so that one place drops
    # a byte-order mark and turns an unreadable or undecodable file into a
    # ValidationError
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {id(node) for top in tree.body if path.name == "data_io.py"
              and getattr(top, "name", None) == "_read_text" for node in ast.walk(top)}
    reads = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for node in _file_reads(tree) if id(node) not in inside]
    assert not reads, "files read outside data_io._read_text: " + ", ".join(reads)
    assert (path.name == "data_io.py") == bool(inside), "data_io._read_text is gone"


def _declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, flags=re.S | re.M)
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in re.findall(r'"([^"]+)"', deps.group(1))}


def test_declared_dependencies_are_the_imported_ones():
    # a dependency nothing imports, or an import nothing declares, fails here
    imported = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == _declared_dependencies()


def test_the_cli_loads_no_scipy():
    # scipy is a test dependency only; importing it would cost every
    # subcommand most of its start-up
    code = ("import sys, osborn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
