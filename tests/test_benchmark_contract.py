"""What the benchmark harness in ``benchmarks/`` needs from the package.

The traced replay wraps functions by name (``benchmarks/tracing.py``), and
the import probe of ``benchmarks/run.py`` reads the ``-X importtime`` line of
``jsonschema`` under ``import aci3.cli``, and the output checks of
``benchmarks/checks.py`` expect a fixed number of checks per ``verify``
scope.  Renaming a traced function, no longer importing jsonschema at
start-up or changing the number of checks breaks the benchmark run; these
tests make each show up in the test suite first.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from aci3 import koszul, monomials, verify

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    """``benchmarks/<name>.py`` as a module, loaded with ``benchmarks/`` on
    sys.path for its imports of its neighbours (``checks`` imports ``workloads``)."""
    spec = importlib.util.spec_from_file_location(
        f"benchmark_{name}", ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    return module


def test_benchmark_check_counts_follow_the_plan():
    # checks.py refuses a verify payload whose scope has another number of
    # checks than it expects, so a new or deleted check must land there too
    expected = _load("checks").VERIFY_CHECKS
    assert expected == dict({scope: len(verify._PLAN[scope]) for scope in verify.SCOPES},
                            all=sum(len(plan) for plan in verify._PLAN.values()))


def test_tracer_installs_and_removes():
    tracing = _load("tracing")
    original = koszul.betti_numbers
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert koszul.betti_numbers is not original
        koszul.betti_numbers(monomials.rigid_witness(2))
    finally:
        tracer.remove()
    assert koszul.betti_numbers is original
    names = {span[0] for span in tracer.spans}
    assert {"koszul.betti_numbers", "intmat.int_rank"} <= names


def test_package_names_follow_the_tracer():
    # aci3.<name> is looked up in its module on each use, never cached
    import aci3

    tracer = _load("tracing").Tracer()
    try:
        tracer.install()
        assert aci3.betti_numbers is koszul.betti_numbers
        assert aci3.betti_numbers.__name__ == "wrapper"
    finally:
        tracer.remove()
    assert aci3.betti_numbers is koszul.betti_numbers


def test_tracer_spans_the_checks_verify_runs():
    # verify.* per-scope times come from the spans of the check_* functions
    tracer = _load("tracing").Tracer()
    try:
        tracer.install()
        assert verify.verify_suite("gaeta").passed
    finally:
        tracer.remove()
    assert "verify.check_gaeta" in {span[0] for span in tracer.spans}


def test_tracer_spans_the_pfaffian_scope():
    # pfaffians.* metrics come from the spans of the wrapped pfaffian
    # functions and from len(p.terms) of what sub_pfaffians returns
    tracer = _load("tracing").Tracer()
    try:
        tracer.install()
        assert verify.verify_suite("pfaffian").passed
    finally:
        tracer.remove()
    names = {span[0] for span in tracer.spans}
    assert {f"pfaffians.{name}" for name in (
        "alt_matrix", "pfaffian", "sub_pfaffians", "pfaffian_int", "pf_squared_equals_det",
        "witness_ideals_a3_h5")} <= names
    assert tracer.counts["pfaffians.terms_out"] > 0


def test_tracer_spans_the_handler_a_route_runs(capsys):
    # cli.handler_ms comes from the spans of the wrapped _cmd_* functions, so
    # a route must look its handler up by name when it runs
    from aci3 import cli

    tracer = _load("tracing").Tracer()
    try:
        tracer.install()
        assert cli.main(["classify", "tmax", "--a", "4"]) == 0
    finally:
        tracer.remove()
    assert capsys.readouterr().out == "5\n"
    assert "cli.handler" in {span[0] for span in tracer.spans}


def test_cli_import_loads_jsonschema():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import aci3.cli"],
                         env=env, capture_output=True, text=True, check=True).stderr
    imported = {m.group(1) for m in re.finditer(r"^import time:.*\| *(\S+)$", err, re.M)}
    assert {"aci3.cli", "jsonschema"} <= imported
