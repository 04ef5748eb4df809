import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sortcycles
from sortcycles import statics

from . import oracles


SRC = Path(sortcycles.__file__).parent


def imports(module: str) -> set[str]:
    """What a submodule's source imports, at module level and inside functions:
    the top-level name of each absolute import, ".name" for each of the
    package's own modules."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            names.update("." + name for name in (
                [node.module] if node.module else [alias.name for alias in node.names]))
    return names


class TestImports:
    def test_only_numpy_and_the_standard_library(self):
        # every import statement, so an import that only some calls run is
        # checked too; scipy serves the tests as an oracle and nothing else
        requested = {name for source in SRC.glob("*.py") for name in imports(source.stem)
                     if not name.startswith(".")}
        assert "numpy" in requested
        assert requested - {"numpy"} - set(sys.stdlib_module_names) == set()

    def test_statics_imports_no_numpy(self):
        # the period block is scalar; its one array caller passes the array in
        assert {name for name in imports("statics") if not name.startswith(".")} <= set(
            sys.stdlib_module_names)

    def test_csvtext_writes_text_alone(self):
        # which file a CSV goes to, and how a failed one is undone, is cli's
        assert imports("csvtext") & {".errors", "pathlib", "contextlib"} == set()

    def test_only_cli_moves_files_into_place(self):
        # one owner for artifact files: a second writer cannot creep back
        movers = {source.stem for source in SRC.glob("*.py")
                  for node in ast.walk(ast.parse(source.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr in ("replace", "rename")
                  and isinstance(node.value, ast.Name) and node.value.id == "os"}
        assert movers == {"cli"}

    def test_no_module_stages_files_of_its_own(self):
        # every artifact is written by cli's handles alone: a worker's rows come
        # home through its pipe, not through a temporary file copied in
        stagers = {source.stem for source in SRC.glob("*.py")
                   if imports(source.stem) & {"tempfile", "shutil"}}
        assert stagers == set()

    def test_importtime_logs_lazily_loaded_submodules(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC.resolve().parent), os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "from sortcycles import statics"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        logged = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "sortcycles.statics" in logged


class TestPeriodBlock:
    def test_dynamics_and_verify_import_no_firms(self):
        # the K-free dispersions are statics' closed forms
        for module in ("dynamics", "verify"):
            assert ".firms" not in imports(module), module

    def test_verify_imports_no_private_name(self):
        # verify re-derives what it checks; another module's internals would
        # make its oracles a second reading of the code under test
        private = [alias.name for node in ast.walk(ast.parse((SRC / "verify.py").read_text()))
                   if isinstance(node, ast.ImportFrom) and node.level > 0
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []

    def test_steady_state_solves_lambda_once(self, table, monkeypatch):
        params, chain = table
        wants = [oracles.steady_state_oracle(params, z) for z in chain.z_states]
        calls = []
        solve_lambda = statics.solve_lambda
        monkeypatch.setattr(statics, "solve_lambda",
                            lambda *args: calls.append(1) or solve_lambda(*args))
        for z, want in zip(chain.z_states, wants):
            calls.clear()
            assert statics.steady_state(params, z) == want, z
            assert len(calls) == 1, z


#: the package's exported names, by the submodule that defines them
EXPORTED = {
    "errors": ("BracketFailure", "DomainError", "EmptyPanel", "GridExit", "NoConvergence",
               "NonFinite", "NoRoot", "SortCyclesError", "UnboundedCapitalDemand"),
    "params": ("AggregateShockState", "MarkovChain2", "ModelParams", "load_config",
               "stationary_distribution", "published_calibration"),
    "statics": ("Coefficients", "StaticEquilibrium", "aggregates", "coefficients", "dispersions",
                "measured_tfp", "solve_lambda", "solve_static", "steady_state"),
    "firms": ("matching", "panel_moments", "wage"),
    "dynamics": ("GridSpec", "Policy", "SimulationPath", "euler_residuals",
                 "impulse_response", "simulate", "solve_policy"),
    "calibrate": ("TargetSet", "model_moments"),
    "verify": ("CheckResult", "VerificationReport", "capital_market_residual",
               "goods_market_residual", "job_density_residuals", "worker_clearing_residual",
               "proposition_suite", "run_verification"),
}
SUBMODULES = (*EXPORTED, "rng")


class TestNamespace:
    def test_each_name_is_its_submodules_object(self):
        for module, names in EXPORTED.items():
            submodule = importlib.import_module(f"sortcycles.{module}")
            for name in names:
                assert getattr(sortcycles, name) is getattr(submodule, name), name

    def test_each_submodule_is_an_attribute(self):
        for module in SUBMODULES:
            assert sortcycles.__getattr__(module) is sys.modules[f"sortcycles.{module}"]
            assert getattr(sortcycles, module) is sys.modules[f"sortcycles.{module}"]
        # the calibrate() entry point stays on its submodule
        assert sortcycles.calibrate.calibrate.__module__ == "sortcycles.calibrate"

    def test_dir_and_all_list_every_name(self):
        names = {*SUBMODULES, *(n for names in EXPORTED.values() for n in names)}
        assert set(sortcycles.__all__) == names
        assert names | {"__version__"} <= set(dir(sortcycles))

    def test_unknown_names_raise(self):
        with pytest.raises(AttributeError, match="no attribute 'kernels'"):
            sortcycles.kernels
        with pytest.raises(ImportError):
            from sortcycles import kernels  # noqa: F401

    def test_a_name_rebound_on_its_submodule_is_seen(self, monkeypatch):
        # nothing is cached on the package, so a wrapper installed on the
        # defining module (as the benchmark's tracer does) is what callers get
        def wrapped(*args, **kwargs):
            return None

        monkeypatch.setattr(sortcycles.statics, "solve_static", wrapped)
        assert sortcycles.solve_static is wrapped


#: standard modules that ``help`` and ``solve`` must not load: the shared
#: revenue map and the pickles of ``moments``' workers, and tempfile, which
#: no module of the package imports
WORKER_MODULES = ("mmap", "tempfile", "pickle", "_pickle")

#: the command lines whose loaded modules are compared; "help" is ``--help``
#: after ``load_config``
COMMANDS = {
    "help": [],
    "solve": ["solve"],
    "simulate": ["simulate", "--T", "50", "--burn-in", "5", "--grid-size", "40"],
    "irf": ["irf", "--horizon", "2", "--n-sims", "4", "--grid-size", "40"],
    "calibrate": ["calibrate", "--fast", "--n-starts", "1", "--max-iter", "2"],
    "verify": ["verify", "--n-prop-points", "2"],
    "moments": ["moments", "--n-firms", "40000", "--panel-csv"],
    "moments-no-csv": ["moments", "--n-firms", "40000"],
}

_LOADED_SCRIPT = """
import sys
before = set(sys.modules)  # what the interpreter's own start-up loaded
import contextlib, io, json
config, out, *argv = sys.argv[1:]
import sortcycles
sortcycles.load_config(config)
from sortcycles import cli
if argv:
    argv += ["--params", config, "--threads", "2", "--out", out]
with contextlib.redirect_stdout(io.StringIO()):
    if cli.run(argv or ["--help"]) not in (0, 3):
        raise SystemExit(f"{argv} failed")
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.fixture(scope="class")
def loaded(tmp_path_factory):
    """Command -> the modules a fresh interpreter that ran it alone loaded."""
    src = Path(sortcycles.__file__).resolve().parents[1]
    config = src.parent / "configs" / "published.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    report = {}
    for name, argv in COMMANDS.items():
        out = tmp_path_factory.mktemp(name)
        proc = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT, str(config), str(out),
                               *argv], cwd=out, env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        report[name] = set(json.loads(proc.stdout.splitlines()[-1]))
    return report


class TestWorkerModules:
    def test_only_moments_loads_the_worker_modules(self, loaded):
        # without numpy nothing loads them; numpy itself loads tempfile and
        # pickle, so after it only mmap tells whether the workers' code ran
        assert loaded["help"] & {"numpy", *WORKER_MODULES} == set()
        assert loaded["solve"] & {"numpy", *WORKER_MODULES} == set()
        assert "mmap" in loaded["moments"]
        for name in ("simulate", "irf", "calibrate", "verify"):
            assert "numpy" in loaded[name] and "mmap" not in loaded[name], name

    def test_solve_loads_the_standard_library_alone(self, loaded):
        # the within-period equilibrium and the steady state are scalar
        assert {m.split(".")[0] for m in loaded["solve"]} <= {
            "sortcycles", *sys.stdlib_module_names}
        assert loaded["solve"] & {"sortcycles.dynamics", "sortcycles.firms",
                                  "sortcycles.rng"} == set()
        assert "sortcycles.statics" in loaded["solve"]

    def test_moments_and_verify_load_no_dynamics(self, loaded):
        for name in ("moments", "verify"):
            assert "sortcycles.dynamics" not in loaded[name], name

    def test_only_moments_and_calibrate_load_firms(self, loaded):
        # the dispersions are closed forms in statics; the panel sampler and
        # the concentration shares are what firms is loaded for
        for name in ("simulate", "irf", "verify"):
            assert "sortcycles.firms" not in loaded[name], name
        assert "sortcycles.firms" in loaded["moments"]
        assert "sortcycles.firms" in loaded["calibrate"]

    def test_only_the_csv_writers_load_csvtext(self, loaded):
        # the numpy cell kernel and its tables are compiled and built only
        # where a CSV file is written
        for name in ("simulate", "irf", "moments"):
            assert "sortcycles.csvtext" in loaded[name], name
        for name in ("help", "solve", "calibrate", "verify", "moments-no-csv"):
            assert "sortcycles.csvtext" not in loaded[name], name

    def test_calibrate_loads_dynamics_for_the_state_table_and_path(self, loaded):
        # the per-state table, the state path and the one moments formula
        # live in dynamics; firms gives the concentration shares
        assert {m for m in loaded["calibrate"] if m.split(".")[0] == "sortcycles"} == {
            "sortcycles", "sortcycles.cli", "sortcycles.errors", "sortcycles.params",
            "sortcycles.rng", "sortcycles.statics", "sortcycles.firms", "sortcycles.dynamics",
            "sortcycles.calibrate"}
