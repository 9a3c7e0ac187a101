"""Import-time guards, checked in a fresh interpreter each.

The command line must start without SciPy, and importing the package
must not pull in its command-line module.
"""

import os
import subprocess
import sys

import stieltjesmp

SRC = os.path.dirname(os.path.dirname(os.path.abspath(stieltjesmp.__file__)))


def _loaded_after(statement, module):
    code = f"import sys; {statement}; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_cli_import_does_not_load_scipy():
    assert not _loaded_after("import stieltjesmp.cli", "scipy")


def test_package_import_does_not_load_cli():
    assert not _loaded_after("import stieltjesmp", "stieltjesmp.cli")
