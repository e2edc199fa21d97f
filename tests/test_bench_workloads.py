"""Every job of the benchmark's workloads at seed 0, and at a second
recorded seed, runs to a correct output with the recorded digest, so that
a change to the library calls the benchmark makes fails here and not only
in a benchmark run."""

import importlib.util
import json
import os

import pytest

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lib = _load_workloads()


def plain_call(name, fn, *args):
    return fn(*args)


def check_seed(name, seed, workdir):
    """Each job's output passes the workload's checks and has the digest
    recorded for ``seed``.  A job recorded as ``exit:<code>`` has no
    digest to compare, as in the benchmark run; it must still succeed,
    since the benchmark counts every raised job as failed."""
    wl = lib.WORKLOADS[name]
    with open(os.path.join(BENCH, "reference", f"{name}.json")) as fh:
        reference = json.load(fh)[str(seed)]
    jobs = wl.generate(seed, workdir)
    assert [job.id for job in jobs] == list(reference)
    for job in jobs:
        out = wl.run(job, plain_call)
        assert wl.check(job, out) == [], job.id
        ref = reference[job.id]
        if not ref.startswith("exit:"):
            assert lib.digest(wl.canonical(job, out)) == ref, job.id


@pytest.mark.parametrize("name", sorted(lib.WORKLOADS))
def test_seed_zero_jobs_match_the_reference(name, tmp_path):
    check_seed(name, 0, str(tmp_path))


@pytest.mark.parametrize("name", sorted(lib.WORKLOADS))
def test_seed_seven_jobs_match_the_reference(name, tmp_path):
    """Seed 7 draws other values into the same job shapes, so a path that
    seed 0 happens not to reach (a sparse seed, a zero coefficient) is
    checked against its digest too."""
    check_seed(name, 7, str(tmp_path))
