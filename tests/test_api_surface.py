"""API-surface guard: every function in src/quatsys has a caller.

A function or method whose name no code in src/, perfbench/ or demos/
refers to, and which quatsys does not export, is either dead or an oracle
that belongs in tests/.  Dunders and overrides of a base-class method are
called by the language or the base class and are not listed.  The scan lists
the rest; each one kept must be on the allowlist below with its reason.

A second scan keeps third-party imports where `IMPORTERS` lists them: numpy
inside the quotient-counting kernel and mpmath, a test oracle, nowhere.  A
fresh interpreter checks that set-up leaves mpmath unloaded and builds none of
the Hurwitz field's constants (its trace-dual basis, `place_table`).

A third keeps one start precision: every `refine` loop in src/quatsys starts
at `intervals.START_BITS`.  Each other start must be on its allowlist with its
reason.  The same scan pins every `refine` call that passes a `max_bits` cap,
as those can raise `PrecisionError`, each with its reason; so the
enumerator's radius cut and class decisions stay free of caps.

A fourth pins the functions src/ keeps only because perfbench's tracer wraps
them by name: no module of src/quatsys but the one defining each refers to it
(`__init__` may export it), so none is wired back into the library and each
waits, with its reason, for the benchmark refresh that drops its span.

A fifth keeps the retired assumption knobs out: class number one and
maximality are worked out from the field and the order, and no systole is
certified from a diameter bound the caller types in, so no call in
src/quatsys passes them and no function there accepts them.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import quatsys
from test_bench_hooks import TARGETS as TRACER_TARGETS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quatsys"

ALLOWED = {
    "unit_envelope": "the stated bound q^2 (q^2 - 1) on the units of a t = 1 quotient; "
                     "test_quotient checks the counts against it",
    "norm_one_envelope": "the stated envelope of norm-one count / q^(3t) for non-maximal "
                         "orders; test_quotient checks the counts against it",
    "kleinian_sr_constant": "the paper's 3-manifold systolic-ratio constant C1 = (8/27) / v3; "
                            "test_bounds checks its value",
}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _referenced(tree) -> set:
    """Names the code refers to: loads, attributes, imports, and string
    constants that are dotted paths (perfbench wraps functions by name)."""
    docs = {id(d) for d in _docstrings(tree)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docs and _DOTTED.fullmatch(node.value):
            out.update(node.value.split("."))
    return out


def _overrides(module, tree) -> set:
    """Methods of the module's classes that override a base-class attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = getattr(module, node.name).__mro__[1:]
            out |= {item.name for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and any(hasattr(base, item.name) for base in bases)}
    return out


def uncalled_functions() -> list:
    defined = set()
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        module = importlib.import_module(f"quatsys.{path.stem}")
        defined |= {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        defined -= _overrides(module, tree)
        referenced |= _referenced(tree)
    for folder in ("perfbench", "demos"):
        for path in sorted((ROOT / folder).glob("*.py")):
            referenced |= _referenced(ast.parse(path.read_text()))
    return sorted(name for name in defined - referenced - set(quatsys.__all__)
                  if not (name.startswith("__") and name.endswith("__")))


def test_every_uncalled_function_is_allowlisted():
    assert uncalled_functions() == sorted(ALLOWED)


# the modules of src/quatsys that may import each third-party package
IMPORTERS = {"numpy": ["quotient.py"], "mpmath": []}


def importers(package: str) -> list:
    """The modules of src/quatsys with an import of package or a submodule of it."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == package for name in names):
                out.append(path.name)
                break
    return out


def test_only_the_quotient_kernel_imports_numpy():
    assert importers("numpy") == IMPORTERS["numpy"]


def test_no_module_imports_mpmath():
    assert importers("mpmath") == IMPORTERS["mpmath"]


def test_set_up_leaves_mpmath_unloaded():
    paths = (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    script = ("import sys, quatsys, quatsys.cli\n"
              "quatsys.hurwitz_context()\n"
              "print('mpmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout
    assert out.splitlines()[-1] == "False"


def test_set_up_builds_no_field_constants():
    paths = (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    script = ("import quatsys, quatsys.cli\n"
              "field = quatsys.hurwitz_context().order.algebra.field\n"
              "print(sorted(map(repr, field._cache)))")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout
    built = ast.literal_eval(out.splitlines()[-1])
    assert not [key for key in built if "dual_basis" in key or "place_table" in key
                or "embedding_inverse" in key]


REFINE_STARTS = {
    ("polys.py", "real_rooted_irreducible", "8"):
        "most subset factors of a degree-d polynomial are ruled out at 8 bits; "
        "starting at START_BITS slowed field construction from 0.58 s to 0.76 s "
        "at degree 11 and from 0.021 s to 0.031 s at degree 6",
}


REFINE_CAPS = {
    ("bounds.py", "hurwitz_43_check", "1536"):
        "the genus chain against (4/3) log g, whose enclosures would never "
        "separate at a tie; past 1536 bits a PrecisionError reports it instead",
    ("geodesics.py", "Enumerator._field_sqrt", "8 * START_BITS"):
        "the certified recovery of x3 at a leaf: four attempts, 60 to 480 bits, "
        "then a PrecisionError instead of an open-ended loop on ambiguous boxes",
}


def refine_calls() -> list:
    """(module, enclosing class and function, start argument, max_bits argument
    or None) of every refine(...) call in src/quatsys."""
    out = []

    def visit(node, module, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", getattr(node.func, "attr", None)) == "refine":
            def arg(i, name):
                found = node.args[i:i + 1] or [k.value for k in node.keywords if k.arg == name]
                return ast.unparse(found[0]) if found else None

            out.append((module, ".".join(scope), arg(1, "bits"), arg(2, "max_bits")))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, ())
    return sorted(out, key=str)


def test_every_refine_loop_starts_at_start_bits():
    assert sorted(call[:3] for call in refine_calls()
                  if call[2] != "START_BITS") == sorted(REFINE_STARTS)


def test_every_capped_refine_loop_is_listed():
    assert sorted((module, scope, cap) for module, scope, _start, cap in refine_calls()
                  if cap is not None) == sorted(REFINE_CAPS)


# name -> (the module of src/quatsys that defines it, why it stays there)
BENCH_HOOKS = {
    "interval_solve": ("intervals.py",
                       "the interval Gauss-Jordan that embedding_inverse's trace-dual basis "
                       "replaced; the tests' oracle for E^-1, and the tracer's "
                       "intervals.interval_solve span until the benchmark refresh drops it"),
    "roots_in_field": ("torsion.py",
                       "exported, and the tracer's torsion.roots_in_field span until the "
                       "benchmark refresh wraps torsion_traces in its place"),
}


def library_users(name: str, home: str) -> list:
    """The modules of src/quatsys, other than home and __init__, that refer to name."""
    return [path.name for path in sorted(PACKAGE.glob("*.py"))
            if path.name not in (home, "__init__.py")
            and name in _referenced(ast.parse(path.read_text()))]


def test_bench_hooks_are_wrapped_by_the_tracer():
    wrapped = {(module, attr) for _span, module, attr in TRACER_TARGETS}
    assert {(f"quatsys.{home[:-3]}", name) for name, (home, _r) in BENCH_HOOKS.items()} <= wrapped


def test_no_library_module_calls_a_bench_hook():
    assert {name: library_users(name, home) for name, (home, _r) in BENCH_HOOKS.items()} == \
        {name: [] for name in BENCH_HOOKS}


ASSUMPTION_KNOBS = {"class_number_one", "assume_maximal", "reference_maximal",
                    "diameter_bound"}


def assumption_knobs() -> list:
    """(module, line, name) of every keyword argument a call in src/quatsys
    passes and every parameter a function there accepts that is a knob."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                names = [k.arg for k in node.keywords]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            else:
                continue
            out += [(path.name, node.lineno, name) for name in names if name in ASSUMPTION_KNOBS]
    return out


def test_no_assumption_knob_is_passed_or_accepted():
    assert assumption_knobs() == []
