"""Which error sites of ``src/cmtower`` does the test suite reach?

Finds every ``raise InvariantError``, ``PrecisionError``, ``HenselError``
and ``ValidationError`` statement in ``src/cmtower`` with ``ast``, runs
the test suite in this process under a ``sys.settrace`` line tracer that
looks only at frames of ``src/cmtower``, and prints the sites that never
ran, grouped by the CLI exit code of their class (2 validation, 3
precision or Hensel, 4 invariant).  The last line counts them.

A site counts as reached when any line of its statement runs.  Code run
in a subprocess (the CLI tests that start ``python -m cmtower.cli``) is
not traced, so a site reached only that way is listed as unreached.

Run from the repository root; extra arguments go to pytest:

    python tools/raise_audit.py
    python tools/raise_audit.py tests/test_local_tower.py

The traced suite runs about three times slower than the plain one, and
a test with a wall-time budget may fail under the tracer; the audit
still counts the lines that ran.
"""

import ast
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "cmtower")
EXIT_CODES = {"ValidationError": 2, "PrecisionError": 3, "HenselError": 3,
              "InvariantError": 4}


def raise_sites():
    """[(path, first line, last line, class name)] for every raise of one
    of the four classes, called or bare, in source order."""
    sites = []
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PKG, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in EXIT_CODES:
                sites.append((path, node.lineno, node.end_lineno, exc.id))
    return sorted(sites)


def run_traced(sites, pytest_args):
    """Run pytest with a line tracer on ``src/cmtower``; return the set
    of sites that ran and pytest's exit status."""
    lines = {}  # path -> {line: site} for every line of every site
    for site in sites:
        path, first, last, _ = site
        for n in range(first, last + 1):
            lines.setdefault(path, {})[n] = site
    hit = set()

    def tracer(frame, event, arg):
        at = lines.get(frame.f_code.co_filename)
        if at is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                site = at.get(frame.f_lineno)
                if site is not None:
                    hit.add(site)
            return local
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return hit, status


def main(argv):
    os.chdir(ROOT)
    sites = raise_sites()
    hit, status = run_traced(
        sites, ["-q", "-p", "no:cacheprovider",
                "--continue-on-collection-errors"] + argv)
    missed = [s for s in sites if s not in hit]
    print(f"\npytest exit status {int(status)}")
    for code in (2, 3, 4):
        group = [s for s in missed if EXIT_CODES[s[3]] == code]
        total = sum(EXIT_CODES[s[3]] == code for s in sites)
        print(f"\nexit {code}: {len(group)} of {total} sites never ran")
        for path, first, _, cls in group:
            print(f"  {os.path.relpath(path, ROOT)}:{first}  {cls}")
    deep = [s for s in sites if EXIT_CODES[s[3]] > 2]
    deep_missed = [s for s in missed if EXIT_CODES[s[3]] > 2]
    print(f"\nunreached: {len(deep_missed)} of {len(deep)} exit-3/4 sites, "
          f"{len(missed) - len(deep_missed)} of {len(sites) - len(deep)} "
          "exit-2 sites")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
