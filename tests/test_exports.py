"""Export hygiene: every public name a module declares exists, and the
package namespace re-exports only names its modules declare public."""

import ast
import importlib
from pathlib import Path

import psdprobe

PACKAGE_DIR = Path(psdprobe.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def test_every_name_in_all_resolves():
    for name in MODULES:
        mod = importlib.import_module(f"psdprobe.{name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, f"psdprobe.{name}.__all__ names missing {missing}"


def test_package_imports_only_public_names():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"psdprobe.{node.module}")
        private = [a.name for a in node.names if a.name not in mod.__all__]
        assert not private, f"psdprobe/__init__.py imports {private} " \
                            f"outside psdprobe.{node.module}.__all__"
