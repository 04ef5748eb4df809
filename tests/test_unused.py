import ast
from pathlib import Path

import sortcycles

SRC = Path(sortcycles.__file__).resolve().parent
#: modules whose public functions and classes the package itself must use: every submodule
CHECKED = tuple(sorted(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("_")))

#: public names that nothing in the package uses, with the reason they stay
ALLOWED = {
    "sortcycles.firms.wage":
        "model-level API: the wage schedule w(x), which the panel's log wage is the log of",
    "sortcycles.firms.matching":
        "model-level API: the assignment h(x) of worker types to job types",
    "sortcycles.dynamics.euler_residuals":
        "the benchmark and acceptance criterion 8 measure the policy's Euler residuals with it",
    "sortcycles.params.published_calibration":
        "the README quick start loads the published parameters and chain with it",
    "sortcycles.verify.theta_process_check":
        "acceptance criterion 9 checks the theta-redraw process with it",
    "sortcycles.calibrate.objective":
        "the tests' scalar measure of a fit and of the infeasible sentinel",
}


def public_definitions(module: str) -> list[str]:
    """Public functions and classes defined at the top level of a submodule."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [f"sortcycles.{module}.{node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def used_names() -> set[str]:
    """Every name the package's code reads: bare, or as ``sortcycles.<module>.<name>``
    where it reads the attribute of a name that is a submodule.  Another
    attribute read (``result.objective``) does not count, nor does a
    definition, an assignment, an import or a string naming it."""
    used = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id in CHECKED):
                used.add(f"sortcycles.{node.value.id}.{node.attr}")
    return used


def unused() -> list[str]:
    used = used_names()
    return [name for module in CHECKED for name in public_definitions(module)
            if name.rsplit(".", 1)[1] not in used and name not in used]


class TestNoTestOnlyCode:
    def test_every_public_definition_is_used_by_the_package(self):
        # a public function or class that only the tests call is a second
        # code path; it belongs in tests/oracles.py
        offenders = [name for name in unused() if name not in ALLOWED]
        assert offenders == [], "used by nothing in src/: " + ", ".join(offenders)

    def test_every_allowed_name_is_still_defined_and_unused(self):
        assert set(ALLOWED) <= set(unused())
