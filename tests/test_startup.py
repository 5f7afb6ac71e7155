"""Start-up: a lazy ``import hardysys`` that exports only what the package
runs, and a package that imports neither numpy nor dataclasses: no module
names them, every command runs, with the same output, where numpy cannot be
imported, and no command loads dataclasses or inspect.

Each run is in a fresh interpreter, since the test process has long since
imported numpy and every submodule.
"""

import ast
import glob
import inspect
import json
import os
import subprocess
import sys

import pytest

import hardysys as hs

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hs.__file__)))

PUBLIC_NAMES = {
    "CheckResult", "CouplingRoot",
    "EFState", "EFTrajectory",
    "IntegrationError", "ParameterError", "ProblemParams", "ScalarProfile",
    "SynchronizedFamily", "VerificationReport",
    "classify", "constants_from_root", "coupling_f",
    "coupling_f_prime", "critical_exponent",
    "find_positive_roots",
    "full_verification", "hardy_constant", "integrate",
    "proportionality_defect", "shoot_synchronized",
    "verify_constants_system",
}


def run_python(code, env_update=None):
    """Run ``python -c code`` on this checkout; return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for key, value in (env_update or {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# --- lazy package -----------------------------------------------------------------


def test_import_loads_no_numpy():
    assert run_python("import json, sys, hardysys; "
                      "print(json.dumps('numpy' in sys.modules))") is False


def test_shot_loads_no_numpy():
    code = """
import json, sys, hardysys
p = hardysys.ProblemParams(4, 0.0, 1.0, 2.0)
half = hardysys.shoot_synchronized(p, hardysys.classify(p, 1.0)[0].root)
print(json.dumps([half.termination, 'numpy' in sys.modules]))
"""
    assert run_python(code) == ["completed", False]


def test_all_keeps_the_public_names():
    assert len(PUBLIC_NAMES) == 22
    names = run_python("import json, hardysys; print(json.dumps(hardysys.__all__))")
    assert set(names) == PUBLIC_NAMES
    assert len(names) == len(PUBLIC_NAMES)


def test_each_name_is_its_submodules_object():
    code = """
import importlib, json, hardysys
wrong = []
for module, names in hardysys._EXPORTS.items():
    sub = importlib.import_module("hardysys." + module)
    wrong += [n for n in names if getattr(hardysys, n) is not getattr(sub, n)]
print(json.dumps(wrong))
"""
    assert run_python(code) == []


def test_submodules_resolve_on_bare_import():
    code = """
import json, hardysys
print(json.dumps([hardysys.verify.full_verification.__module__,
                  hardysys.cli.main.__module__,
                  hardysys.coupling.__name__]))
"""
    assert run_python(code) == ["hardysys.verify", "hardysys.cli", "hardysys.coupling"]


def test_star_import_binds_every_name():
    code = """
import json
ns = {}
exec("from hardysys import *", ns)
print(json.dumps(sorted(k for k in ns if not k.startswith("__"))))
"""
    assert set(run_python(code)) == PUBLIC_NAMES


def test_unknown_name_raises_attribute_error():
    code = """
import json, hardysys
try:
    hardysys.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
"""
    assert "no_such_name" in run_python(code)


def test_dir_lists_lazy_names():
    names = run_python("import json, hardysys; print(json.dumps(dir(hardysys)))")
    assert PUBLIC_NAMES <= set(names) and "cli" in names


def test_every_exported_function_is_used_by_the_package():
    # a helper that only tests call belongs in tests/reference.py
    loaded = set()
    for path in glob.glob(os.path.join(SRC, "hardysys", "*.py")):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    functions = {name for name in hs.__all__ if not inspect.isclass(getattr(hs, name))}
    assert sorted(functions - loaded) == []


# --- numpy ------------------------------------------------------------------------


#: what no module of the package imports: numpy, and dataclasses, whose import
#: (it loads inspect, ast and dis) and generated methods slow every command's
#: start-up
NOT_IMPORTED = {"numpy", "dataclasses"}


def test_no_module_imports_numpy():
    # nor dataclasses; at any depth, not only at the top of a module
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "hardysys", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(os.path.basename(path), node.lineno) for name in names
                      if name.split(".")[0] in NOT_IMPORTED]
    assert found == []


def test_no_module_imports_an_unused_name():
    # a name a module imports and never reads is a dependency nothing needs
    unused = []
    for path in sorted(glob.glob(os.path.join(SRC, "hardysys", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        imported, read = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
        unused += [(os.path.basename(path), line, name)
                   for name, line in imported.items() if name not in read]
    assert unused == []


CLI_IN_PROCESS = """
import contextlib, io, json, runpy, sys
if %r:
    sys.modules["numpy"] = None  # every import of numpy now raises ImportError
sys.argv = ["hardysys", *%r]
out, code = io.StringIO(), 0
with contextlib.redirect_stdout(out):
    try:
        runpy.run_module("hardysys", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
loaded = sorted(k for k, m in sys.modules.items()
                if m and (k.split(".")[0] == "numpy" or k in %r))
print(json.dumps([code, out.getvalue(), loaded]))
"""

PARAMS = ["--gamma", "0", "--nu", "1"]
CLASSIFY = ["classify", "--n", "3", *PARAMS, "--alpha", "3"]
SWEEP = ["sweep", "--n", "3", *PARAMS, "--alpha", "3", "--param", "nu",
         "--start", "0.5", "--stop", "1.5", "--samples", "5"]
VERIFY = ["verify", "--n", "4", *PARAMS, "--alpha", "2"]
SHOOT = ["shoot", "--n", "4", *PARAMS, "--alpha", "2"]
EXPORT = ["export", "--n", "4", *PARAMS, "--alpha", "2"]  # --out is added per run


def run_cli_in_process(argv, block_numpy, watched=("dataclasses", "inspect")):
    """``python -m hardysys argv`` in a fresh interpreter, through runpy; return
    [exit code, stdout, the modules of numpy and of ``watched`` it loaded]."""
    return run_python(CLI_IN_PROCESS % (block_numpy, argv, watched))


def test_console_script_target_imports_without_running():
    # argparse would exit 2 on the empty argv if importing the module ran main
    code = "import json, hardysys.__main__ as m; print(json.dumps(m.main.__module__))"
    assert run_python(code) == "hardysys.cli"


@pytest.mark.parametrize("argv", [CLASSIFY, SWEEP, SHOOT, VERIFY, EXPORT],
                         ids=["classify", "sweep", "shoot", "verify", "export"])
def test_every_command_runs_without_numpy(argv, tmp_path):
    # a normal run and one in which numpy cannot be imported exit 0 with the
    # same stdout, and export writes the same files; neither loads numpy,
    # dataclasses or inspect
    runs = []
    for block in (False, True):
        out = tmp_path / ("blocked" if block else "normal")
        out.mkdir()
        code, stdout, loaded = run_cli_in_process(
            [*argv, "--out", str(out / "case")] if argv is EXPORT else argv, block)
        assert (code, loaded) == (0, [])
        runs.append((stdout, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    assert runs[0] == runs[1]
    if argv is EXPORT:
        assert sorted(runs[0][1]) == ["case.profile.csv", "case.trajectory.csv"]
    else:
        assert runs[0][0]


#: the layers that not every command runs, the costliest modules to import
LAYERS = ("hardysys.emdenfowler", "hardysys.verify")


@pytest.mark.parametrize("argv, layers", [
    (CLASSIFY, []), (SWEEP, []), (EXPORT, []),
    (SHOOT, ["hardysys.emdenfowler"]), (VERIFY, list(LAYERS))],
    ids=["classify", "sweep", "export", "shoot", "verify"])
def test_each_command_loads_only_the_layers_it_runs(argv, layers, tmp_path):
    # export writes both tables from the closed form in profiles: it
    # integrates nothing, so it loads neither the integrator nor the verifier
    code, _, loaded = run_cli_in_process(
        [*argv, "--out", str(tmp_path / "case")] if argv is EXPORT else argv, False, LAYERS)
    assert (code, loaded) == (0, layers)
