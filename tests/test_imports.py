"""No module of the package or of its tests imports a name that it never reads,
and the package exports no name that only the tests read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "gnmd" / "__init__.py"
# The package's __init__ binds its submodules on purpose.
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "gnmd").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path != PACKAGE_INIT
)
PRODUCT = sorted([*(ROOT / "src" / "gnmd").glob("*.py"), *(ROOT / "bench").glob("*.py")])
EXPORTERS = [path for path in PRODUCT if path.parent.name == "gnmd"]


def unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by the module's top-level imports that it never reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            # import a.b binds a; import a.b as c binds c.
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_a_module_with_an_unread_import_is_caught():
    tree = ast.parse("import os.path\nimport json as js\nfrom math import pi, tau\nprint(tau)\n")
    assert unused_imports(tree) == ["os", "js", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_top_level_import_is_read(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def read_names(trees: list[ast.Module]) -> set[str]:
    """The names that some Name or attribute in the trees loads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unread_exports(tree: ast.Module, read: set[str]) -> list[str]:
    """The names in the module's __all__ that are not in `read`."""
    exported = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
    ]
    return [name for names in exported for name in names if name not in read]


def test_an_export_that_nothing_reads_is_caught():
    tree = ast.parse("__all__ = ['used', 'probe', 'Kind']\ndef used(): return Kind\n")
    caller = ast.parse("import mod\nmod.used()\n")
    assert unread_exports(tree, read_names([tree, caller])) == ["probe"]


@pytest.fixture(scope="module")
def product_reads():
    return read_names([ast.parse(module.read_text()) for module in PRODUCT])


@pytest.mark.parametrize("path", EXPORTERS, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_export_has_a_product_reader(path, product_reads):
    assert unread_exports(ast.parse(path.read_text()), product_reads) == []
