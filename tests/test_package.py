import ast
import sys
from pathlib import Path


def test_library_imports_only_the_standard_library():
    # the package declares `dependencies = []`: every absolute import names a
    # standard-library module, and relative imports stay inside the package
    sources = sorted((Path(__file__).parents[1] / "src" / "hexscan").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
