import ast
from pathlib import Path

import sortcycles

SRC = Path(sortcycles.__file__).resolve().parent
#: modules whose public functions, classes and constants the package itself must use:
#: every submodule
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
}

#: defaulted parameters that no call in the package passes, with the reason they stay
ALLOWED_PARAMETERS = {
    "sortcycles.calibrate.calibrate(bounds)": "tests narrow the search box",
    "sortcycles.cli.run(argv)":
        "tests and perfbench/run.py --trace 1 call the command line in-process",
    "sortcycles.dynamics.simulate(K0)":
        "acceptance and dynamics tests start the path off the steady state",
    "sortcycles.dynamics.solve_policy(tol)": "tests tighten it to 1e-10",
    "sortcycles.dynamics.solve_policy(max_iter)": "a test forces NoConvergence with it",
}


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function's or a class's, or
    each name an assignment binds (``A = B = 1``, ``A, B = 1, 2``, ``A: int = 1``)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]


def public_definitions(module: str) -> list[str]:
    """Public functions, classes and constants defined at the top level of a submodule."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [f"sortcycles.{module}.{name}" for node in tree.body for name in defined_names(node)
            if not name.startswith("_")]


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


def calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in the package, by the name it calls: ``f(...)`` and
    ``x.f(...)`` both count as calls to f."""
    calls = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def unpassed_parameters() -> list[str]:
    """``sortcycles.<module>.<function>(<parameter>)`` for each parameter with
    a default, of a public top-level function, that no call in the package to
    a function of that name passes, by keyword or by position."""
    calls, unpassed = calls_by_name(), []
    for module in CHECKED:
        for node in ast.parse((SRC / f"{module}.py").read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            defaulted += [(None, arg.arg) for arg, default in zip(args.kwonlyargs,
                                                                  args.kw_defaults)
                          if default is not None]
            for position, name in defaulted:
                if not any(any(keyword.arg == name for keyword in call.keywords)
                           or (position is not None and len(call.args) > position)
                           for call in calls.get(node.name, [])):
                    unpassed.append(f"sortcycles.{module}.{node.name}({name})")
    return unpassed


class TestNoTestOnlyCode:
    def test_every_public_definition_is_used_by_the_package(self):
        # a public function, class or constant that only the tests read is a
        # second code path, or a leftover of one; it belongs in tests/oracles.py
        offenders = [name for name in unused() if name not in ALLOWED]
        assert offenders == [], "used by nothing in src/: " + ", ".join(offenders)

    def test_assigned_constants_are_definitions(self):
        # a constant whose only reader moved to the tests is a leftover too
        def names(source):
            return defined_names(ast.parse(source).body[0])
        assert names("A = B = 1") == ["A", "B"]
        assert names("A, (B, C) = 1, (2, 3)") == ["A", "B", "C"]
        assert names("A: int = 1") == ["A"]
        assert names("A[0] = 1") == names("A.b = 1") == names("import A") == []

    def test_every_allowed_name_is_still_defined_and_unused(self):
        assert set(ALLOWED) <= set(unused())

    def test_every_defaulted_parameter_is_passed_by_the_package(self):
        # a default that only the tests override is a knob the program never
        # turns: a second code path that no subcommand reaches
        offenders = [name for name in unpassed_parameters() if name not in ALLOWED_PARAMETERS]
        assert offenders == [], "passed by nothing in src/: " + ", ".join(offenders)

    def test_every_allowed_parameter_is_still_defaulted_and_unpassed(self):
        assert set(ALLOWED_PARAMETERS) <= set(unpassed_parameters())
