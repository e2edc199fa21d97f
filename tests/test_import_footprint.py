"""What importing cmtower costs: the CLI runs one command per process, so
every report pays for the imports first.  Each case runs a fresh
``python -S`` with ``src/`` on the path, so no site package and no
earlier test has loaded anything."""

import json
import os
import subprocess
import sys

from cmtower.cli import RunConfig, dispatch

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src")


def run_python(*args):
    return subprocess.run(
        [sys.executable, "-S", *args], capture_output=True, text=True,
        cwd=ROOT, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)


def modules_after(statement):
    """The names in sys.modules after running ``statement``."""
    proc = run_python("-c", f"import sys\n{statement}\n"
                            "print('\\n'.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_loads_no_introspection_modules():
    """The records are namedtuples and plain classes, so no import pulls
    in dataclasses and the modules it loads, or typing.  (When the
    records were dataclasses, all seven of these were loaded.)  The CLI
    reads its INI file itself, so configparser, whose parser costs more
    to build than a small config costs to read, is not loaded either."""
    heavy = {"dataclasses", "typing", "inspect", "ast", "dis", "tokenize",
             "linecache", "configparser"}
    assert not heavy & modules_after("import cmtower.cli")


def test_package_root_loads_no_submodule():
    loaded = {m for m in modules_after("import cmtower.padic")
              if m.split(".")[0] == "cmtower"}
    assert loaded == {"cmtower", "cmtower.errors", "cmtower.padic"}


def test_module_entry_point_report():
    config = os.path.join("configs", "lt_p5.ini")
    proc = run_python("-m", "cmtower.cli", "lt-group-law",
                      "--config", config)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    expected = dispatch(RunConfig.load("lt-group-law",
                                       os.path.join(ROOT, config), {}))
    del report["timing"], expected["timing"]
    assert report == expected
