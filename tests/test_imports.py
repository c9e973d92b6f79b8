"""Import footprint: the package imports no pandas, so neither the driver
nor a Python worker that unpickles a round task loads it on its account,
and the kernels module imports nothing else from the package."""
import os
import subprocess
import sys

import repro

_PROBE = """
import pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    __import__(name)
assert "repro.core.engine" in names, names
print(len(names), "pandas" in sys.modules)
"""


def _fresh(probe: str) -> list[str]:
    """Run ``probe`` in a fresh interpreter that imports this ``repro``;
    returns its stdout's words."""
    src = os.path.dirname(os.path.dirname(os.path.realpath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    ).stdout.split()


def test_no_repro_module_imports_pandas():
    """Importing every module under ``repro`` in a fresh interpreter
    leaves ``pandas`` out of ``sys.modules``."""
    out = _fresh(_PROBE)
    assert int(out[0]) > 10
    assert out[1] == "False"


def test_kernels_import_no_other_repro_module():
    """The module every executor task runs its kernels from loads no
    ``repro`` module beyond its own package path."""
    out = _fresh(
        "import sys, repro.core.kernels\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    assert out == ["repro", "repro.core", "repro.core.kernels"]
