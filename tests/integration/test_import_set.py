"""What a study process imports.

Every study, farm worker, service call and benchmark repetition is a fresh
interpreter, so each pays for whatever the study path imports.  A subsystem's
dependencies load where that subsystem runs: numpy and scipy inside the
aging analytics, the guided engine inside guided work, urllib inside the
service client's HTTP call, the ablations only when called.  These tests
start a fresh interpreter and pin that the study path stays free of them;
the aging, guided and HTTP-client tests show each deferred import still
loads when its code runs.
"""

import json
import os
import subprocess
import sys

import repro

#: The modules a study process imports: the CLI, the wear harness, the
#: fleet, the service daemon and the farm.
STUDY_MODULES = (
    "repro.experiments.runner",
    "repro.experiments.wear_experiment",
    "repro.fleet",
    "repro.service.daemon",
    "repro.farm",
)

#: Top-level packages no study path uses.
ABSENT_PACKAGES = ("numpy", "scipy")

#: Modules no study path uses, with their submodules.
ABSENT_MODULES = (
    "urllib.request",
    "http.server",
    "http.client",
    "repro.guided",
    "repro.experiments.ablations",
)


def _run(*args):
    """Run a fresh interpreter that finds this ``repro``."""
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (source_root, env.get("PYTHONPATH")) if part
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _unused(module: str) -> bool:
    return module.split(".")[0] in ABSENT_PACKAGES or any(
        module == name or module.startswith(name + ".") for name in ABSENT_MODULES
    )


def test_study_process_imports_no_unused_subsystem():
    code = (
        "import importlib, json, sys\n"
        f"for name in {STUDY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    done = _run("-c", code)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert set(STUDY_MODULES) <= set(loaded)
    assert [module for module in loaded if _unused(module)] == []


def test_runner_runs_as_main_without_a_second_copy():
    # runpy warns when the package __init__ has already imported the module
    # it is about to run as __main__: the run would hold two runner modules.
    done = _run("-W", "error::RuntimeWarning", "-m", "repro.experiments.runner", "--help")
    assert done.returncode == 0, done.stderr
