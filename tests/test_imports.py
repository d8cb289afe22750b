"""Import structure: commands load only the layers they run.

SciPy serves only the LP relaxations in :mod:`repro.lp`, and is imported
inside the functions that solve an LP; the experiments package imports
its submodules on first access.  Each guard runs in a fresh interpreter,
because this test process has long since imported everything.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import repro.experiments

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "module",
    [
        "repro.cli",
        "repro.experiments.churn",
        "repro.experiments.r2_starvation",
        "repro.experiments.ecmp_simulation",
        "repro.lp",
    ],
)
def test_import_leaves_scipy_unloaded(module):
    done = _python(
        f"import sys, {module}\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded'\n"
    )
    assert done.returncode == 0, done.stderr


def test_run_e1_leaves_scipy_unloaded():
    done = _python(
        "import runpy, sys\n"
        "sys.argv = ['repro', 'run', 'e1']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded'\n"
    )
    assert done.returncode == 0, done.stderr
    assert "matches paper: True" in done.stdout


def test_deferred_linprog_still_solves(clos2):
    from repro.core.flows import FlowCollection
    from repro.lp import splittable_feasible

    # Two unit flows from ToR 1 to ToR 3 fill both of its uplinks; the
    # server links pass, so the LP decides.
    flows = FlowCollection()
    flows.add_pair(clos2.source(1, 1), clos2.destination(3, 1))
    flows.add_pair(clos2.source(1, 2), clos2.destination(3, 2))
    assert splittable_feasible(clos2, flows, {f: Fraction(1) for f in flows})


class TestLazyExperimentsPackage:
    @pytest.mark.parametrize("name", repro.experiments.__all__)
    def test_attribute_resolves_to_submodule(self, name):
        module = getattr(repro.experiments, name)
        assert module.__name__ == f"repro.experiments.{name}"
        assert sys.modules[module.__name__] is module

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            getattr(repro.experiments, "nope")

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from repro.experiments import *", namespace)
        assert len(repro.experiments.__all__) == 16
        for name in repro.experiments.__all__:
            assert namespace[name] is getattr(repro.experiments, name)

    def test_submodule_forms_still_work(self):
        done = _python(
            "import sys\n"
            "from repro.experiments import churn\n"
            "import repro.experiments.ecmp_simulation\n"
            "import repro.experiments as ex\n"
            "assert ex.churn is churn\n"
            "assert ex.ecmp_simulation is sys.modules["
            "'repro.experiments.ecmp_simulation']\n"
            "assert 'repro.experiments.r3_doom_switch' not in sys.modules\n"
        )
        assert done.returncode == 0, done.stderr
