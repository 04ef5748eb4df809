import ast
import re
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

#: dataclass fields that no code in the package reads, with the reason they stay
ALLOWED_FIELDS = {
    "sortcycles.dynamics.Policy.n_iterations":
        "the solver's sweeps: perfbench/run.py reads them as dynamics.solve_policy.sweeps, "
        "and the planned run report (ROADMAP item 3) prints them",
    "sortcycles.dynamics.Policy.sup_diff":
        "the solver's last change in C, a run diagnostic that the planned run report "
        "(ROADMAP item 3) prints",
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


def modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def dataclass_fields(trees: dict[str, ast.Module]) -> dict[str, tuple[str, dict[str, str]]]:
    """Class name -> (its module, {field: the text of its annotation}) for every
    dataclass in the package."""
    found = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                found[node.name] = (module, {stmt.target.id: ast.unparse(stmt.annotation)
                                             for stmt in node.body
                                             if isinstance(stmt, ast.AnnAssign)})
    return found


def read_whole(trees: dict[str, ast.Module], classes: dict) -> set[str]:
    """The dataclasses whose every field the package reads through ``fields()``
    or ``asdict()``: the class named in the call, the method's own class for
    ``self``, or the class of a local name as its binding in the function
    declares it: the return annotation of the function whose result it is
    assigned, or the annotation of the field whose items a loop over it runs
    through."""
    returns = {node.name: ast.unparse(node.returns) for tree in trees.values()
               for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.returns}

    def named(text):
        return {word for word in re.findall(r"\w+", text) if word in classes}

    def types(expr, function, owner):
        if isinstance(expr, ast.Attribute):
            return {name for cls in types(expr.value, function, owner)
                    for name in named(classes[cls][1].get(expr.attr, ""))}
        if not isinstance(expr, ast.Name):
            return set()
        if expr.id in classes:
            return {expr.id}
        if expr.id == "self" and owner is not None:
            return {owner}
        found = set()
        for node in ast.walk(function):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and any(isinstance(t, ast.Name) and t.id == expr.id for t in node.targets)):
                callee = node.value.func
                callee = getattr(callee, "id", None) or getattr(callee, "attr", "")
                found |= named(returns.get(callee, ""))
            elif (isinstance(node, (ast.For, ast.comprehension))
                  and isinstance(node.target, ast.Name) and node.target.id == expr.id):
                found |= types(node.iter, function, owner)
        return found

    def functions(tree):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield node, None
            elif isinstance(node, ast.ClassDef):
                yield from ((f, node.name) for f in node.body if isinstance(f, ast.FunctionDef))

    whole = set()
    for tree in trees.values():
        for function, owner in functions(tree):
            for call in ast.walk(function):
                if (isinstance(call, ast.Call) and call.args
                        and (getattr(call.func, "id", None) or getattr(call.func, "attr", None))
                        in ("fields", "asdict")):
                    whole |= types(call.args[0], function, owner)
    return whole


def unread_fields() -> list[str]:
    """``sortcycles.<module>.<Class>.<field>`` for each dataclass field that no
    code in the package reads as an attribute (of any object) and whose class
    it never reads whole through ``fields()`` or ``asdict()``."""
    trees = modules()
    classes = dataclass_fields(trees)
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    whole = read_whole(trees, classes)
    return [f"sortcycles.{module}.{cls}.{name}" for cls, (module, names) in classes.items()
            if cls not in whole for name in names if name not in attributes]


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

    def test_every_dataclass_field_is_read_by_the_package(self):
        # a field that only the tests read is state the program carries for
        # nothing; CheckResult's statistic is read only whole, through asdict(c)
        offenders = [name for name in unread_fields() if name not in ALLOWED_FIELDS]
        assert offenders == [], "read by nothing in src/: " + ", ".join(offenders)

    def test_every_allowed_field_is_still_defined_and_unread(self):
        assert set(ALLOWED_FIELDS) <= set(unread_fields())


def coverage_exclusions() -> list[str]:
    """``<file>:<line>`` for each line of the package that carries a coverage
    tool's exclusion comment."""
    return [f"{path.name}:{number}" for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"#\s*pragma:\s*no\s*cover", line)]


class TestNoCoverageExclusions:
    def test_no_line_is_excluded_from_coverage(self):
        # no coverage tool is a dependency or configured, so nothing reads
        # these comments, and one marked a line the command line reaches
        # (steady_state's "could not bracket" raise)
        assert coverage_exclusions() == []
