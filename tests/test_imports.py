"""Import footprint: the package imports no pandas, so neither the driver
nor a Python worker that unpickles a round task loads it on its account."""
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


def test_no_repro_module_imports_pandas():
    """Importing every module under ``repro`` in a fresh interpreter
    leaves ``pandas`` out of ``sys.modules``."""
    src = os.path.dirname(os.path.dirname(os.path.realpath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, check=True, env=env
    ).stdout.split()
    assert int(out[0]) > 10
    assert out[1] == "False"
