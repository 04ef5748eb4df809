import ast
import sys
from pathlib import Path

import sortcycles


class TestImports:
    def test_only_numpy_and_the_standard_library(self):
        # every import statement in the package's source, at module level
        # and inside functions, so an import that only some calls run is
        # checked too; scipy serves the tests as an oracle and nothing else
        requested = set()
        for source in sorted(Path(sortcycles.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
                if isinstance(node, ast.Import):
                    requested.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    requested.add(node.module.split(".")[0])
        assert "numpy" in requested
        assert requested - {"numpy"} - set(sys.stdlib_module_names) == set()
