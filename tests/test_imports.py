"""No module of the package or of its tests imports a name that it never reads."""

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
