"""Short-mode self-tests for the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

They check that every metric in BENCHMARK.json is emitted with its unit in
both modes, that a corrupted or changed output is counted as a failure,
that the documented defect is the only failure class at this commit, and
that the benchmark refuses to run without the library's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

lib = run.import_library()

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def short_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--short"],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def short_jobs(wl):
    jobs = wl.generate(1, os.path.join(run.WORK, "test-jobs"))
    return [j for j in jobs if j.short]


class Corrupting:
    """A workload whose outputs are damaged after the library returns."""

    def __init__(self, wl, damage):
        self.wl = wl
        self.damage = damage

    def run(self, job, span):
        out = self.wl.run(job, span)
        self.damage(out)
        return out

    def __getattr__(self, name):
        return getattr(self.wl, name)


def _damage_lt(out):
    out["law"].coeffs[(1, 1)] = out["law"].coeffs.get((1, 1), 0) + 1
    out["law"].coeffs[(2, 1)] = 5


def _damage_tower(out):
    out["disc"] += 1


def _damage_cli(out):
    report = json.loads(out["text"])
    report["results"] = {"damaged": True}
    out["text"] = json.dumps(report)


class HarnessTest(unittest.TestCase):

    def test_spec_matches_harness(self):
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(lib.WORKLOADS))

    def test_every_metric_emitted_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    res = short_run(w["name"], trace)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(
                        {k: m["unit"] for k, m in res["metrics"].items()},
                        {m["name"]: m["unit"] for m in SPEC[key]})
                    for m in res["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_corrupted_output_counts_as_failure(self):
        for name, damage in (("lt_dense", _damage_lt), ("tower", _damage_tower),
                             ("cli_mix", _damage_cli)):
            with self.subTest(workload=name):
                wl = lib.WORKLOADS[name]
                jobs = [j for j in short_jobs(wl)
                        if j.kind != "elliptic-match"][:4]
                outcomes = run.Outcomes(wl, lib, {})
                results, _ = run.run_pass(Corrupting(wl, damage), jobs, outcomes)
                self.assertTrue(all(failed for _, _, failed in results))
                self.assertEqual(outcomes.by_class, {"wrong_output": len(jobs)})
                self.assertEqual(outcomes.unexpected, len(jobs))

    def test_reference_mismatch_counts_as_failure(self):
        wl = lib.WORKLOADS["tower"]
        jobs = short_jobs(wl)[:2]
        outcomes = run.Outcomes(wl, lib, {jobs[0].id: "0" * 16})
        results, _ = run.run_pass(wl, jobs, outcomes)
        self.assertEqual([failed for _, _, failed in results], [True, False])
        self.assertEqual(outcomes.by_class, {"wrong_output": 1})

    def test_only_the_documented_defect_fails(self):
        wl = lib.WORKLOADS["cli_mix"]
        jobs = short_jobs(wl)
        outcomes = run.Outcomes(wl, lib, {})
        run.run_pass(wl, jobs, outcomes)
        matches = [j for j in jobs if j.kind == "elliptic-match"]
        conjugate = [j for j in matches
                     if lib._frobenius(j.params["a"], j.params["p"])[1][1] < 0]
        self.assertEqual(len(matches), 4)
        self.assertEqual(len(conjugate), 2)
        self.assertEqual(outcomes.by_class, {lib.KNOWN_DEFECT: len(conjugate)})
        self.assertEqual(outcomes.unexpected, 0)

    def test_refuses_without_library_sources(self):
        bare = os.path.join(run.WORK, "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            proc = subprocess.run(
                [sys.executable] + SPEC["command"][1:] + [
                    "--workload", "tower", "--seed", "1", "--seconds", "1",
                    "--trace", "0"],
                capture_output=True, text=True, timeout=120, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
