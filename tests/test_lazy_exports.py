"""Package exports load lazily: the runtime, the kernels and the paper
data import without the solvers' scipy dependency, and every exported
name still resolves."""

import importlib
import os
import subprocess
import sys

import pytest

PACKAGES = ("repro", "repro.core", "repro.experiments")


def _loaded_after(imports, module):
    """Whether ``module`` is loaded after ``imports`` in a fresh
    interpreter."""
    script = f"import sys\nimport {imports}\nprint({module!r} in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_light_imports_leave_scipy_unloaded():
    assert not _loaded_after(
        "repro.runtime, repro.kernels, repro.experiments.paper_data", "scipy"
    )


def test_server_import_leaves_scipy_optimize_unloaded():
    # the drift monitor needs scipy.special (the Fagin baseline), but
    # only the Newton solver needs scipy.optimize
    assert not _loaded_after("repro.service.server", "scipy.optimize")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))


def test_aliases_resolve_to_their_targets():
    from repro.core import density_average_occupancy
    from repro.core.density_model import average_occupancy

    assert density_average_occupancy is average_occupancy


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_names_raise_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")
