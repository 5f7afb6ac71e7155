"""Start-up: a lazy ``import hardysys`` that exports only what the package
runs, a shot and a CLI whose scalar commands load no numpy, and a CLI that
starts no BLAS threads when it does load it.

Each test runs in a fresh interpreter, since the test process has long since
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
    "CheckResult", "ConvergenceError", "CouplingRoot",
    "EFState", "EFTrajectory",
    "IntegrationError", "ParameterError", "ProblemParams", "ScalarProfile",
    "SynchronizedFamily", "TrajectoryError", "VerificationReport",
    "classify", "constants_from_root", "coupling_f",
    "coupling_f_prime", "critical_exponent",
    "find_positive_roots",
    "full_verification", "hardy_constant", "integrate",
    "proportionality_defect", "shoot_synchronized",
    "verify_constants_system", "weighted_system_residual",
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
    assert len(PUBLIC_NAMES) == 25
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


# --- what a CLI command loads ------------------------------------------------------

CLI_IN_PROCESS = """
import contextlib, io, json, os, runpy, sys
sys.argv = ["hardysys", *%r]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("hardysys", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        threads = int(next(ln for ln in fh if ln.startswith("Threads:")).split()[1])
print(json.dumps([threads, os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules]))
"""

PARAMS = ["--gamma", "0", "--nu", "1"]
CLASSIFY = ["classify", "--n", "3", *PARAMS, "--alpha", "3"]
SWEEP = ["sweep", "--n", "3", *PARAMS, "--alpha", "3", "--param", "nu",
         "--start", "0.5", "--stop", "1.5", "--samples", "5"]
VERIFY = ["verify", "--n", "4", *PARAMS, "--alpha", "2"]
SHOOT = ["shoot", "--n", "4", *PARAMS, "--alpha", "2"]
EXPORT = ["export", "--n", "4", *PARAMS, "--alpha", "2"]  # --out is added per test


def run_cli_in_process(argv, env_update=None):
    """``python -m hardysys argv`` in a fresh interpreter, through runpy; return
    [threads (None without /proc), OPENBLAS_NUM_THREADS, numpy loaded]."""
    return run_python(CLI_IN_PROCESS % (argv,), env_update)


needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="reads the thread count from /proc/self/status")


def test_console_script_target_imports_without_running():
    # argparse would exit 2 on the empty argv if importing the module ran main
    code = "import json, hardysys.__main__ as m; print(json.dumps(m.main.__module__))"
    assert run_python(code) == "hardysys.cli"


@pytest.mark.parametrize("argv,loaded", [(CLASSIFY, False), (SWEEP, False), (SHOOT, False),
                                         (VERIFY, True), (EXPORT, True)],
                         ids=["classify", "sweep", "shoot", "verify", "export"])
def test_only_array_commands_load_numpy(argv, loaded, tmp_path):
    if argv is EXPORT:
        argv = [*EXPORT, "--out", str(tmp_path / "case")]
    assert run_cli_in_process(argv)[2] is loaded


@needs_proc
def test_cli_starts_no_blas_pool():
    # verify loads numpy, and so OpenBLAS, which starts its worker thread
    # unless the entry point's one-thread default is in force
    threads, setting, loaded = run_cli_in_process(VERIFY, {"OPENBLAS_NUM_THREADS": None})
    assert (threads, setting, loaded) == (1, "1", True)


@needs_proc
def test_cli_keeps_the_callers_blas_setting():
    _, setting, _ = run_cli_in_process(VERIFY, {"OPENBLAS_NUM_THREADS": "2"})
    assert setting == "2"
