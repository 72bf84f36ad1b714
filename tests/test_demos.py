"""The demos import only names the package defines, and demo 03 prints
what it always printed.

All demos run in CI. The tier-1 suite runs only demo 03, a short one, and
pins its stdout; for the others it checks that every name they import
still exists, so a name removed from the package cannot break them unseen.
"""

import ast
import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of the stdout of demos/03_eavesdropper.py: the passive sweep, the
# injection alarms and Eve's view of one period, all at fixed seeds.
EAVESDROPPER_STDOUT = "569cc89ba93093281f3965f1601cac3052c1b5384c3abdf7e9eec841a299dea0"


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


def test_eavesdropper_stdout_pinned():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "03_eavesdropper.py")],
        capture_output=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert hashlib.sha256(result.stdout).hexdigest() == EAVESDROPPER_STDOUT
