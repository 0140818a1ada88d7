"""Layering: the engine never imports the theorem harness.

The harness holds the oracles and the alternative formulations that
cross-check the engine, so no engine module may reach them, not even
through a re-export.  Only the command line (`gradix.cli`, which runs the
suites) and the harness itself may import `gradix.harness`.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import gradix
from gradix import algebra, division, ptc
from gradix.harness import composed, gen, oracle
from gradix.parsing import parse_ptc

PACKAGE = Path(gradix.__file__).resolve().parent
HARNESS = "gradix.harness"
MAY_IMPORT_HARNESS = {"gradix.cli"}


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(source: str, module: str, is_package: bool) -> set:
    """Every module an import statement of `source` names, relative imports
    resolved; `from p import x` counts as importing both p and p.x."""
    package = module if is_package else module.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                target = f"{base}.{node.module}" if node.module else base
            else:
                target = node.module
            found.add(target)
            found.update(f"{target}.{alias.name}" for alias in node.names)
    return found


def is_harness(module: str) -> bool:
    return module == HARNESS or module.startswith(HARNESS + ".")


def test_import_resolution():
    assert imported_modules("from .harness import oracle", "gradix.algebra", False) >= {
        "gradix.harness", "gradix.harness.oracle"}
    assert "gradix.harness" in imported_modules("from . import harness", "gradix.table", False)
    assert "gradix.harness.gen" in imported_modules("from ..harness.gen import x",
                                                    "gradix.sub.mod", False)
    assert "gradix.harness" in imported_modules("import gradix.harness", "gradix", True)
    assert not any(map(is_harness, imported_modules("from .harnesses import x",
                                                    "gradix.algebra", False)))
    # the scan is not vacuous: it finds the command line's harness import
    cli = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert any(map(is_harness, imported_modules(cli, "gradix.cli", False)))


def test_engine_does_not_import_the_harness():
    checked, offenders = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = module_name(path)
        if is_harness(module) or module in MAY_IMPORT_HARNESS:
            continue
        checked.append(module)
        imports = imported_modules(path.read_text(encoding="utf-8"), module,
                                   path.name == "__init__.py")
        offenders += [(module, m) for m in sorted(imports) if is_harness(m)]
    assert {"gradix", "gradix.division", "gradix.algebra", "gradix.table"} <= set(checked)
    assert offenders == []


def test_the_command_line_imports_the_harness_only_to_check():
    """`gradix eval` runs in a fresh process each time, so importing
    `gradix.cli` loads neither the harness nor `dataclasses`."""
    probe = ("import sys, gradix.cli; "
             "print(sorted(m for m in sys.modules if m == 'dataclasses' or m.startswith('"
             + HARNESS + "')))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_alternative_formulations_live_in_the_harness():
    """The engine has one GDDO path and one residuum-infimum loop, the only
    code of the division module that knows the row layout; the other
    formulations are harness code with no engine re-export."""
    assert list(inspect.signature(division.div_gddo).parameters) == ["d1", "d2", "d3", "d4"]
    for name in ("div_codd_composed", "div_small_composed", "div_small_general_composed",
                 "div_great_composed", "div_darwen_composed"):
        assert callable(getattr(composed, name))
        assert not hasattr(division, name) and not hasattr(gradix, name)
    assert callable(oracle.gddo_joinable) and callable(oracle.gddo_nocond)
    # the calculus has one translation in the engine; the paper's literal one
    # and the variable-splitting lemma are harness code
    assert list(inspect.signature(ptc.compile_ptc_to_ra).parameters) == ["expr"]
    for name in ("compile_ptc_literal", "split_variable", "DIV_FORM", "GSDO_FORM"):
        assert hasattr(composed, name)
        assert not hasattr(ptc, name) and not hasattr(gradix, name)
    assert callable(gen.VarFactory) and not hasattr(ptc, "VarFactory")
    # names only tests reached are gone from the engine
    for module, name in ((algebra, "adom"), (ptc, "all_vars"), (ptc, "atoms_of"),
                         (ptc, "ptc_constants"), (ptc, "valuation"), (ptc, "embed_ra")):
        assert not hasattr(module, name) and not hasattr(gradix, name)
    tree = ast.parse((PACKAGE / "division.py").read_text(encoding="utf-8"))
    residuum_users = {
        f.name for f in tree.body if isinstance(f, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "kresiduum" for n in ast.walk(f))
    }
    assert residuum_users == {"_residuum_infimum"}
    plans = {"_project_plan", "_join_plan"}
    plan_users = {
        f.name for f in tree.body if isinstance(f, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id in plans
                or isinstance(n, ast.Attribute) and n.attr in plans for n in ast.walk(f))
    }
    assert plan_users == {"_residuum_infimum"}


def test_calculus_infimum_runs_through_the_division_kernel():
    """`ptc.py` takes no infimum and calls no table operator or division
    itself: it compiles every ⋀ to a division node, and `eval_ptc`
    evaluates the compiled expression."""
    tree = ast.parse((PACKAGE / "ptc.py").read_text(encoding="utf-8"))
    names = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "kinf" not in names
    modules = {name for name, value in vars(ptc).items() if inspect.ismodule(value)}
    assert modules == {"ra", "warnings"}
    functions = {value.__module__ for value in vars(ptc).values() if inspect.isfunction(value)}
    assert not functions & {"gradix.table", "gradix.division"}

    variables = {"a": frozenset("A"), "b": frozenset("B"), "c": frozenset("C")}
    symbols = {"Q": frozenset("B"), "R": frozenset("AB"), "K": frozenset("BC")}
    for text in ("ALL b . (Q(b) => R(a, b))", "ALL b . (R(a, b) & Q(b))",
                 "ALL a, b . (R(a, b))", "ALL b . (K(b, c) => R(a, b))",
                 "ALL a . (ALL b . (Q(b) => R(a, b)) * ALL c . (ANY b . (K(b, c))))"):
        expr = parse_ptc(text, variables, symbols)
        infs = [n for n in algebra.walk(expr) if type(n) is ptc.PtcInf]
        divisions = [n for n in algebra.walk(ptc.compile_ptc_to_ra(expr))
                     if type(n) in algebra._DIVISION_SCHEMES]
        assert len(divisions) == len(infs) and {type(n) for n in divisions} == {algebra.GCodd}


def recursions(source: str) -> list:
    """The recursions of a module: each group of functions that call
    themselves, directly or through one another, as sorted qualified names.
    A call `f(...)` resolves to the innermost enclosing definition of `f`,
    and `self.f(...)` to a method of the same class."""
    funcs, stack = {}, [(ast.parse(source), "")]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.FunctionDef):
                    funcs[name] = child
                stack.append((child, name))
            else:
                stack.append((child, scope))

    def resolve(scope: str, called: str):
        while True:
            target = f"{scope}.{called}" if scope else called
            if target in funcs:
                return target
            if not scope:
                return None
            scope = scope.rpartition(".")[0]

    def callees(name: str) -> set:
        out, todo = set(), list(funcs[name].body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue  # a nested definition's calls are its own
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name):
                    out.add(resolve(name, f.id))
                elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                      and f.value.id == "self"):
                    out.add(resolve(name, f.attr))
            todo.extend(ast.iter_child_nodes(node))
        return out - {None}

    graph = {name: callees(name) for name in funcs}
    reach = {}
    for name in funcs:
        seen, todo = set(), list(graph[name])
        while todo:
            callee = todo.pop()
            if callee not in seen:
                seen.add(callee)
                todo.extend(graph[callee])
        reach[name] = seen
    recursive = [name for name in funcs if name in reach[name]]
    groups = {tuple(sorted(p for p in recursive if p in reach[q] and q in reach[p]))
              for q in recursive}
    return sorted(groups)


def test_recursion_scan():
    source = '''
def f(x):
    return f(x - 1)

def g(e):
    def rec(node):
        return [rec(k) for k in node]
    return rec(e)

def h(x):
    return ra.h(x)

class C:
    def a(self):
        return self.b()

    def b(self):
        return self.a() + h(1)
'''
    assert recursions(source) == [("C.a", "C.b"), ("f",), ("g.rec",)]


def test_no_traversal_recurses():
    """Every traversal of the algebra and the calculus is a fold over one
    iterative post-order, so the engine's stack depth does not grow with
    the expression's."""
    for module in ("algebra.py", "ptc.py"):
        assert recursions((PACKAGE / module).read_text(encoding="utf-8")) == [], module


def scoped_nodes(source: str, skip_annotations: bool = False):
    """Every node of a module with the qualified name of the function or
    class it is in ("<module>" outside them); with `skip_annotations`, the
    `returns` and `annotation` subtrees are left out."""
    stack = [(ast.parse(source), "<module>")]
    while stack:
        node, scope = stack.pop()
        skip = ((getattr(node, "returns", None), getattr(node, "annotation", None))
                if skip_annotations else ())
        for child in ast.iter_child_nodes(node):
            if any(child is s for s in skip):
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
                stack.append((child, inner))
                continue
            yield scope, child
            stack.append((child, scope))


def dynamic_code_calls(source: str) -> set:
    """The functions of a module, by qualified name, that call `exec`,
    `eval` or `compile` (the built-ins, not a method such as
    `re.compile`); a call outside every function counts as "<module>"."""
    return {scope for scope, node in scoped_nodes(source)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("exec", "eval", "compile")}


def test_dynamic_code_scan():
    source = ("import re\nre.compile('x')\ndef f():\n    exec('1')\n"
              "class C:\n    def g(self):\n        return [eval(s) for s in ()]\n")
    assert dynamic_code_calls(source) == {"f", "C.g"}
    assert dynamic_code_calls("compile('1', '', 'eval')\n") == {"<module>"}
    annotated = ("x: eval('int') = 1\n"
                 "def h(a: exec('1')) -> compile('1', '', 'eval'):\n    pass\n")
    assert dynamic_code_calls(annotated) == {"<module>", "h"}
    assert dynamic_code_calls("def h() -> compile('1', '', 'eval'):\n    pass\n") == {"h"}


def test_only_the_kernel_generator_and_slot_init_run_generated_code():
    """Generated code comes from two places: the slot `__init__` of the
    algebra's node classes and the row-kernel generator of the lattices."""
    callers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = module_name(path)
        callers |= {(module, f) for f in dynamic_code_calls(path.read_text(encoding="utf-8"))}
    assert callers == {("gradix.algebra", "_init"), ("gradix.lattice", "_compiled")}


def random_builders(source: str) -> set:
    """The functions of a module that name a `Random` class outside an
    annotation (`random.Random`, `_random.Random` or a `Random` imported by
    name), which is what building one takes."""
    return {scope for scope, node in scoped_nodes(source, skip_annotations=True)
            if (isinstance(node, ast.Attribute) and node.attr == "Random")
            or (isinstance(node, ast.Name) and node.id == "Random")}


RNG_DRAWS = ("sample", "randint", "randrange", "choice", "shuffle")


def rng_draw_calls(source: str) -> set:
    """(function, method) for every call of one of `RNG_DRAWS` as a method."""
    return {(scope, node.func.attr) for scope, node in scoped_nodes(source)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in RNG_DRAWS}


def test_random_scans():
    source = ("import random\nfrom random import Random\n"
              "def f(r: random.Random) -> random.Random:\n    x: Random = r\n"
              "    return gen.draw_sample(r, 'ab', 1) + [gen.draw_int(r, 0, 2)]\n"
              "def g():\n    return random.Random(1).sample('ab', 1)\n"
              "class C:\n    def h(self, rng):\n        return Random(), rng.randint(0, 2)\n")
    assert random_builders(source) == {"g", "C.h"}
    assert rng_draw_calls(source) == {("g", "sample"), ("C.h", "randint")}
    assert random_builders("import _random\n_random.Random.seed(r, 1)\n") == {"<module>"}


def test_streams_and_their_draws_live_in_the_generator():
    """Every `random.Random` is opened by `gen._stream`, and the suites draw
    their samples and ranges through `gen`, so the draw contract is kept in
    one module."""
    builders = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = module_name(path)
        builders |= {(module, f) for f in random_builders(path.read_text(encoding="utf-8"))}
    assert builders == {("gradix.harness.gen", "_stream")}
    suites = (PACKAGE / "harness" / "suites.py").read_text(encoding="utf-8")
    assert rng_draw_calls(suites) == set()
