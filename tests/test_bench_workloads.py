"""Every seed-0 job of the benchmark's workloads runs to a correct output
with the recorded digest, so that a change to the library calls the
benchmark makes fails here and not only in a benchmark run."""

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


@pytest.mark.parametrize("name", sorted(lib.WORKLOADS))
def test_seed_zero_jobs_match_the_reference(name, tmp_path):
    """Each job's output passes the workload's checks and has the digest
    recorded for seed 0.  A job recorded as ``exit:<code>`` has no digest
    to compare, as in the benchmark run; it must still succeed, since the
    benchmark counts every raised job as failed."""
    wl = lib.WORKLOADS[name]
    with open(os.path.join(BENCH, "reference", f"{name}.json")) as fh:
        reference = json.load(fh)["0"]
    jobs = wl.generate(0, str(tmp_path))
    assert [job.id for job in jobs] == list(reference)
    for job in jobs:
        out = wl.run(job, plain_call)
        assert wl.check(job, out) == [], job.id
        ref = reference[job.id]
        if not ref.startswith("exit:"):
            assert lib.digest(wl.canonical(job, out)) == ref, job.id
