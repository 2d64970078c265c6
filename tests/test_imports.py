"""No module of the package, its tests or its scripts imports a name it never reads.

Each file is parsed with the standard library's ``ast``.  A name bound by an import
statement counts as read if some expression loads it (``np.array`` loads ``np``) or if the
module lists it in ``__all__``, which is how a package re-exports what it imports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src/qmodes", "tests", "scripts") for path in (ROOT / folder).rglob("*.py"))


def unread_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, in the order it imports them."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            read |= {item.value for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
    return [name for name in imported if name not in read]


def test_the_scan_finds_what_a_file_imports_and_never_reads():
    source = (
        "import math\nimport numpy as np\nimport os.path\nfrom fractions import Fraction\n"
        "from typing import Sequence\nfrom .qcore import q_number, passes\n"
        "__all__ = ['passes']\nx: Sequence = np.zeros(1)\n"
    )
    assert unread_imports(source) == ["math", "os", "Fraction", "q_number"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []
