"""A client loads no simulator: lazy package exports and the CLI's import set.

``import repro``, the service SDK and the client verbs of ``python -m repro``
must run on the standard library alone, so a fresh client process starts in
tens of milliseconds instead of loading numpy and the whole simulator. The
package roots resolve their exports on first use; these tests pin both the
import set (in fresh interpreters) and that every export still resolves to
the object its defining module holds.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules a client process must never load.
SIMULATOR = (
    "numpy",
    "repro.trace",
    "repro.system",
    "repro.paradigms",
    "repro.harness",
    "repro.analysis",
)

#: Runs ``python -m repro ARGV`` in-process, then prints the exit code and
#: the loaded module names as the last line of stdout.
_CLI_DRIVER = """
import json, runpy, sys
sys.argv = ["repro", *json.loads(sys.argv[1])]
code = 0
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

_IMPORT_DRIVER = """
import json, sys
{statement}
print(json.dumps({{"code": 0, "modules": sorted(sys.modules)}}))
"""


def _run(*argv: str) -> dict:
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _simulator_modules(modules: "list[str]") -> "list[str]":
    return [
        name for name in modules
        if any(name == heavy or name.startswith(heavy + ".") for heavy in SIMULATOR)
    ]


class TestClientImportSet:
    @pytest.mark.parametrize(
        "statement", ["import repro", "from repro.service import ServiceClient"]
    )
    def test_import_loads_no_simulator(self, statement):
        report = _run("-c", _IMPORT_DRIVER.format(statement=statement))
        assert _simulator_modules(report["modules"]) == []

    def test_sdk_loads_at_most_eight_repro_modules(self):
        report = _run("-c", _IMPORT_DRIVER.format(
            statement="from repro.service import ServiceClient"
        ))
        ours = [name for name in report["modules"] if name.split(".")[0] == "repro"]
        assert len(ours) <= 8, ours

    def test_submit_help_loads_no_simulator(self):
        report = _run("-c", _CLI_DRIVER, json.dumps(["submit", "--help"]))
        assert report["code"] == 0
        assert _simulator_modules(report["modules"]) == []

    def test_status_against_closed_port_loads_no_simulator(self):
        url = f"http://127.0.0.1:{_closed_port()}"
        report = _run("-c", _CLI_DRIVER, json.dumps(["status", "job-000001", "--url", url]))
        assert report["code"] == 2
        assert _simulator_modules(report["modules"]) == []


def _typing_imports(module) -> "dict[str, str]":
    """Exported name -> defining module, read from the ``if TYPE_CHECKING:`` block."""
    tree = ast.parse(inspect.getsource(module))
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            return {
                alias.name: importlib.util.resolve_name(
                    "." * stmt.level + (stmt.module or ""), module.__name__
                )
                for stmt in node.body
                if isinstance(stmt, ast.ImportFrom)
                for alias in stmt.names
            }
    raise AssertionError(f"{module.__name__} has no TYPE_CHECKING block")


@pytest.mark.parametrize("package", ["repro", "repro.service", "repro.obs"])
class TestLazyExports:
    def test_every_export_is_the_defining_modules_object(self, package):
        module = importlib.import_module(package)
        sources = _typing_imports(module)
        assert set(sources) == set(module.__all__) - {"__version__"}
        for name, source in sources.items():
            expected = getattr(importlib.import_module(source), name)
            assert getattr(module, name) is expected, name

    def test_dir_lists_every_export(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_name_names_the_module(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"module '{package}' has no attribute"):
            getattr(module, "no_such_export")


class TestCliNames:
    """The parser's choices come from :mod:`repro.names`; the registries agree."""

    def test_workload_names_are_the_table2_registry(self):
        from repro.names import WORKLOAD_NAMES
        from repro.workloads.registry import workload_names

        assert WORKLOAD_NAMES == tuple(workload_names())

    def test_paradigm_names_are_the_executor_registry(self):
        from repro.names import PARADIGM_NAMES
        from repro.paradigms.registry import PARADIGMS

        assert PARADIGM_NAMES == tuple(PARADIGMS)

    def test_verify_default_paradigms_are_one_tuple(self):
        from repro.names import DEFAULT_VERIFY_PARADIGMS, PARADIGM_NAMES
        from repro.verify.differential import DEFAULT_PARADIGMS

        assert DEFAULT_PARADIGMS is DEFAULT_VERIFY_PARADIGMS
        assert set(DEFAULT_VERIFY_PARADIGMS) <= set(PARADIGM_NAMES)

    def test_every_figure_names_an_experiment(self):
        from repro.harness import experiments
        from repro.names import FIGURES

        assert tuple(experiments.FIGURE_TABLE) == FIGURES
