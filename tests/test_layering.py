"""Layering: the engine never imports the theorem harness.

The harness holds the oracles and the alternative formulations that
cross-check the engine, so no engine module may reach them, not even
through a re-export.  Only the command line (`gradix.cli`, which runs the
suites) and the harness itself may import `gradix.harness`.
"""

import ast
import inspect
from pathlib import Path

import gradix
from gradix import division
from gradix.harness import composed, oracle

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


def test_alternative_formulations_live_in_the_harness():
    """The engine has one GDDO path and one residuum-infimum loop; the other
    formulations are harness code with no engine re-export."""
    assert list(inspect.signature(division.div_gddo).parameters) == ["d1", "d2", "d3", "d4"]
    for name in ("div_codd_composed", "div_small_composed", "div_small_general_composed",
                 "div_great_composed", "div_darwen_composed"):
        assert callable(getattr(composed, name))
        assert not hasattr(division, name) and not hasattr(gradix, name)
    assert callable(oracle.gddo_joinable) and callable(oracle.gddo_nocond)
    tree = ast.parse((PACKAGE / "division.py").read_text(encoding="utf-8"))
    residuum_users = {
        f.name for f in tree.body if isinstance(f, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "kresiduum" for n in ast.walk(f))
    }
    assert residuum_users == {"_residuum_infimum"}
