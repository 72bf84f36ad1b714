"""The demos import only names the package defines.

The demos run in CI, not in the tier-1 suite, so a name removed from the
package would otherwise break them unseen.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def kljnsim_imports(path):
    """(module, name) for each name a demo imports from kljnsim; name is
    None for a plain ``import kljnsim...``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kljnsim":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (
                (alias.name, None) for alias in node.names
                if alias.name.split(".")[0] == "kljnsim"
            )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_resolve(demo):
    imports = list(kljnsim_imports(demo))
    assert imports, "the demo imports nothing from kljnsim"
    for module, name in imports:
        found = importlib.import_module(module)
        assert name is None or hasattr(found, name), f"{module}.{name}"
