import ast
import sys
from pathlib import Path

import sortcycles


class TestImports:
    def test_only_numpy_scipy_and_the_standard_library(self):
        # every import statement in the package's source, at module level
        # and inside functions, so the lazily imported scipy modules are
        # checked although importing the package never runs them
        requested = set()
        for source in sorted(Path(sortcycles.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
                if isinstance(node, ast.Import):
                    requested.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    requested.add(node.module.split(".")[0])
        assert {"numpy", "scipy"} <= requested
        assert requested - {"numpy", "scipy"} - set(sys.stdlib_module_names) == set()
