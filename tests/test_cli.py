"""Command-line front end: fixture configs, report shape, determinism,
exit codes."""

import json
import os
import subprocess
import sys

import pytest

from cmtower.cli import COMMANDS, RunConfig, dispatch, main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

FIXTURES = [
    ("lt-group-law", "lt_p5.ini"),
    ("lt-endo", "lt_p5.ini"),
    ("lt-iso", "lt_p5.ini"),
    ("cm-embed", "gauss_p5.ini"),
    ("cm-pi", "gauss_p5.ini"),
    ("tower-build", "tower_mult_p5.ini"),
    ("tower-disc", "tower_mult_p5.ini"),
    ("tower-conductor", "tower_mult_p5.ini"),
    ("divide", "tower_mult_p5.ini"),
    ("wedge-reduce", "wedge_p5_s2.ini"),
    ("wedge-extend", "wedge_p5_s2.ini"),
    ("galois-orders", "galois_p3.ini"),
    ("elliptic-fg", "elliptic_p13.ini"),
    ("elliptic-match", "elliptic_p13.ini"),
]


def run_command(command, config, overrides=None):
    cfg = RunConfig.load(command, os.path.join(CONFIG_DIR, config),
                         overrides or {})
    return dispatch(cfg)


class TestFixtures:
    @pytest.mark.parametrize("command,config", FIXTURES)
    def test_runs_and_reports(self, command, config):
        report = run_command(command, config)
        assert report["report_version"] == 1
        assert report["command"] == command
        assert len(report["config_hash"]) == 64
        assert report["results"]
        assert report["provenance"]
        # reports must serialize
        json.dumps(report, sort_keys=True)

    def test_every_command_has_a_fixture(self):
        assert {c for c, _ in FIXTURES} == set(COMMANDS)


class TestResults:
    def test_tower_conductor_values(self):
        rep = run_command("tower-conductor", "tower_mult_p5.ini")
        res = rep["results"]
        assert res["conductor_exponent"] == 2
        assert res["disc_exponent"] == 8
        assert set(res["deltas"].values()) == {2}

    def test_tower_disc_values(self):
        res = run_command("tower-disc", "tower_mult_p5.ini")["results"]
        assert res["disc"] == 20 and res["conductor_floor"] == 5

    def test_wedge_reduce_values(self):
        res = run_command("wedge-reduce", "wedge_p5_s2.ini")["results"]
        assert res["trivial"] and not res["blocked"]
        assert res["final"] == [[0, 0], [4, 1]]

    def test_wedge_deny_override(self):
        res = run_command("wedge-reduce", "wedge_p5_s2.ini",
                          {"oracle": "deny"})["results"]
        assert res["blocked"] and res["note"] == "blocked at CFT step"

    def test_galois_orders(self):
        res = run_command("galois-orders", "galois_p3.ini")["results"]
        assert res["order_full"] == 54 and res["index"] == 3
        assert res["cyclic"]

    def test_elliptic_match(self):
        res = run_command("elliptic-match", "elliptic_p13.ini")["results"]
        assert res["a_p"] == 6
        assert res["alpha_P"] == [3, 2]
        assert res["iso_jacobian"]["value"] == 1
        assert sum(c["passes"] for c in res["candidates"]) == 1


class TestDeterminism:
    @pytest.mark.parametrize("command,config", FIXTURES)
    def test_reports_identical_excluding_timing(self, command, config):
        a = run_command(command, config)
        b = run_command(command, config)
        a.pop("timing")
        b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestMain:
    def test_exit_zero_and_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["tower-disc",
                     "--config", os.path.join(CONFIG_DIR, "tower_mult_p5.ini"),
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["disc"] == 20

    def test_missing_config_is_validation_error(self, capsys):
        code = main(["tower-disc", "--config", "/nonexistent.ini"])
        assert code == 2
        assert "validation error" in capsys.readouterr().err

    def test_missing_required_key_is_validation_error(self, capsys):
        code = main(["galois-orders",
                     "--config", os.path.join(CONFIG_DIR, "lt_p5.ini")])
        assert code == 2

    # alpha_P = x + y i with x = a_p / 2 and the sign of y putting it over
    # the embedded prime (p, i - r), r the smaller root of -1 mod p: on
    # these curves that is x - |y| i, the conjugate of the first guess
    @pytest.mark.parametrize("a,p,trunc,alpha_P", (
        (-1, 5, 12, [-1, -2]),    # a_p = -2, r = 2
        (-4, 13, 16, [-3, -2]),   # a_p = -6, r = 5
    ))
    def test_elliptic_match_conjugate_frobenius(self, tmp_path, a, p, trunc,
                                                 alpha_P):
        cfg = tmp_path / "curve.ini"
        cfg.write_text(f"[elliptic]\na = {a}\nb = 0\np = {p}\n"
                       f"trunc = {trunc}\n")
        out = tmp_path / "report.json"
        code = main(["elliptic-match", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["results"]
        assert res["alpha_P"] == alpha_P
        assert sum(c["passes"] for c in res["candidates"]) == 1

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cmtower.cli", "galois-orders",
             "--config", os.path.join(CONFIG_DIR, "galois_p3.ini")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["cyclic"]
