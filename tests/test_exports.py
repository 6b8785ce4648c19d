"""The package's exported surface: every name in `svtangent.__all__`
resolves, and `from svtangent import *` binds each of them; and `classify`
loads only the modules it runs."""

import os
import subprocess
import sys
from pathlib import Path

import svtangent


def test_every_exported_name_resolves():
    assert len(set(svtangent.__all__)) == len(svtangent.__all__)
    for name in svtangent.__all__:
        assert getattr(svtangent, name, None) is not None, name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from svtangent import *", namespace)
    for name in svtangent.__all__:
        assert namespace[name] is getattr(svtangent, name), name


def test_classify_loads_only_the_modules_it_runs():
    # Every module the set-up of a run imports is compiled and executed
    # before its first call, so `classify` must not pull in the complexes,
    # the toric ideal, the worked cases or the CLI.  -S keeps site-packages
    # and its .pth hooks out of the count.
    code = (
        "import sys\n"
        "import svtangent.classify\n"
        "from svtangent.classify import classify\n"
        "from svtangent.model import SVParams\n"
        "for a, b in [([1, 1, 1], [2, 2, 2]), ([1, 2], [1, 8]), ([2], [8])]:\n"
        "    classify(SVParams.of(a, b))\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'svtangent')))\n"
    )
    src = str(Path(svtangent.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    modules = {"classify", "hoatrung", "lattice", "membership", "model", "regions"}
    assert loaded == {"svtangent", *(f"svtangent.{m}" for m in modules)}, loaded
