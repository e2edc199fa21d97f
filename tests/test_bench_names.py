"""Every name the benchmark's span recorder patches must exist in cmtower,
so that renaming or deleting one fails here and not only in a traced
benchmark run."""

import importlib
import importlib.util
import os

import pytest

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                          "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _lookup(module, path):
    owner = importlib.import_module(f"cmtower.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize(
    "module, path",
    [(row[1], row[2]) for row in spans.SPANS + spans.COUNTS],
    ids=lambda v: v)
def test_patched_entry_point_exists(module, path):
    assert callable(_lookup(module, path))


@pytest.mark.parametrize("module, local, source, attr", spans.BINDINGS,
                         ids=lambda v: v)
def test_binding_is_the_defining_function(module, local, source, attr):
    assert _lookup(module, local) is _lookup(source, attr)
