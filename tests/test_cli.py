"""Command-line front end: fixture configs, report shape, determinism,
exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cmtower import cli, galois_model, padic
from cmtower.cli import COMMANDS, RunConfig, dispatch, main
from cmtower.errors import PrecisionError
from cmtower.lubin_tate import LTSeed
from cmtower.padic import TruncSeries

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

    def test_every_config_is_a_fixture(self):
        assert {f for _, f in FIXTURES} == {
            f for f in os.listdir(CONFIG_DIR) if f.endswith(".ini")}

    @pytest.mark.parametrize("command,config", FIXTURES)
    def test_no_sparse_series_product(self, monkeypatch, tmp_path, command,
                                      config):
        """One-variable series multiply through the dense kernel: no
        command multiplies two sparse series (``TruncSeries.__mul__``
        stays the multivariate product behind ``compose``)."""
        products = 0
        mul = TruncSeries.__mul__

        def counting(a, b):
            nonlocal products
            products += 1
            return mul(a, b)

        monkeypatch.setattr(TruncSeries, "__mul__", counting)
        assert main([command, "--config", os.path.join(CONFIG_DIR, config),
                     "--out", str(tmp_path / "report.json")]) == 0
        assert products == 0


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


# sha256 of each fixture report without its timing, as dumped by
# ``json.dumps(report, indent=2, sort_keys=True)``; a change to any number,
# key or provenance line of a report shows here
GOLDEN = [
    ("lt-group-law", "lt_p5.ini",
     "4e6ae1c301875d1596547049f7d30466b9a9ecd2d01f90ee6f3adb0475fce560"),
    ("lt-endo", "lt_p5.ini",
     "d93a70c480b79b95a969d31e85b00de8a9fde17a2e3906b25e3a466b5139e38e"),
    ("lt-iso", "lt_p5.ini",
     "89f28bb43d6d274d4d3ade6c00607b1a06be39e53ab6683bf8c10c554e081671"),
    ("cm-embed", "gauss_p5.ini",
     "6655006f4ad97df771cf4e0b4ede3091af9bf1ea222a038810da8d7450080b5c"),
    ("cm-pi", "gauss_p5.ini",
     "5b41dcaff2b265705646552a94269d1b24e6f37ca84ee624a26e5a38335fdfa1"),
    ("tower-build", "tower_mult_p5.ini",
     "d5b009b65003d67d86943c32836c4a599918ca16d107aab4c4b9ad2cf7ca0bb9"),
    ("tower-disc", "tower_mult_p5.ini",
     "eb0477ae1e43b4d754874d515baa226dbc4f8cdb9bf6ff95b97f36d526cb409a"),
    ("tower-conductor", "tower_mult_p5.ini",
     "b4a78e466a71916d6db78f4a0aee947baed73aa400264c2d41a489df1fa0a516"),
    ("divide", "tower_mult_p5.ini",
     "1196624ce8bc427170be3779764cece47f6d7b9275eebc05473435b720ea19ad"),
    ("wedge-reduce", "wedge_p5_s2.ini",
     "65edbb7d13c4238a0643f9ddd56e201a275000e2da98d8e02866c177aa86ce58"),
    ("wedge-extend", "wedge_p5_s2.ini",
     "8a502900f1d35adfa06848aabd863f421e994b9f984113e61eab67a1b91c018f"),
    ("galois-orders", "galois_p3.ini",
     "79aab6427db1e7ac9d5fc186532ccdea9c22e1146e0367e23ff2b50b08340829"),
    ("elliptic-fg", "elliptic_p13.ini",
     "098acf36c66efd3ac3618859ef09e2d08c95f96fc5e9c0d511e050d6643389a0"),
    ("elliptic-match", "elliptic_p13.ini",
     "d9afa4387e4a062382787a974b05fae311a4ca8c86ee9da5bdae174be439c31f"),
]


class TestGolden:
    def test_covers_every_fixture(self):
        assert [(c, f) for c, f, _ in GOLDEN] == FIXTURES

    @pytest.mark.parametrize("command,config,digest", GOLDEN)
    def test_report_digest(self, command, config, digest):
        report = run_command(command, config)
        report.pop("timing")
        text = json.dumps(report, indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


TOWER = "[seed]\np = 5\nkind = multiplicative\n[tower]\n"
CURVE = "[elliptic]\na = -1\nb = 0\np = 13\n"
GAUSS = "[field]\npoly = 1 0 1\np = 5\nconj = 0 -1\ncm_type = 0\n[cm]\n"
# t0 = 9 is nonzero but 0 mod 3^2: its depth 2 needs N >= 3
CAPPED_T0 = "[seed]\np = 3\nkind = standard\n[tower]\nt0 = 9\n"
SEEDS = ("[seed]\np = 5\nkind = standard\ntrunc = 12\n"
         "[seed2]\np = 5\nkind = multiplicative\n")


class TestSeedSections:
    """[seed2] reads trunc and precision from its own section, else from
    [seed]; the flags override both."""

    @pytest.mark.parametrize("seed2,flags,want", (
        ("", {}, (12, 22)),
        ("trunc = 12\n", {}, (12, 22)),
        ("precision = 30\n", {}, (12, 30)),
        ("trunc = 8\nprecision = 9\n", {}, (8, 9)),
        ("trunc = 8\nprecision = 9\n", {"trunc": 10, "precision": 15},
         (10, 15)),
    ), ids=("fallback", "same-trunc", "own-precision", "own-both", "flags"))
    def test_seed2_resolution(self, tmp_path, seed2, flags, want):
        cfg = tmp_path / "seeds.ini"
        cfg.write_text(SEEDS + seed2)
        rc = RunConfig.load("lt-iso", str(cfg), flags)
        assert (rc.seed().trunc, rc.seed().N) == (
            flags.get("trunc", 12), flags.get("precision", 22))
        s = rc.seed("seed2")
        assert (s.trunc, s.N) == want


# a p above every size bound: building its seed, or testing it for
# primality by trial division, would not finish
HUGE_P = 10 ** 18 + 3


@pytest.fixture
def sizes_checked_first(monkeypatch):
    """Seed constructors and primality tests fail at once on a p above
    the size bounds, so a bound checked too late fails the test instead
    of running for minutes."""
    def refusing(f, bound, i):
        def check(*args):
            if args[i] > bound:
                raise AssertionError(f"{f.__name__} ran before the size check")
            return f(*args)
        return check

    for name in ("standard", "multiplicative"):
        build = LTSeed.__dict__[name].__func__
        monkeypatch.setattr(LTSeed, name, classmethod(
            refusing(build, cli.MAX_SEED_TRUNC, 1)))
    for module in (galois_model, padic):
        monkeypatch.setattr(module, "is_prime", refusing(
            padic.is_prime, galois_model.MAX_MODULUS, 0))


@st.composite
def tower_seed(draw):
    """(p, a [seed] section) of the benchmark's ``tower`` job shape, p in
    {3, 5}: pi = p u with u a unit below p, a_k = p x with x below p^3
    for 1 < k < p, t^p coefficient 1 + p y with y below p, truncation
    p + 2 or 2p."""
    p = draw(st.sampled_from((3, 5)))
    coeffs = ([0, p * draw(st.integers(1, p - 1))]
              + [p * draw(st.integers(0, p ** 3 - 1)) for _ in range(2, p)]
              + [1 + p * draw(st.integers(0, p - 1))])
    trunc = draw(st.sampled_from((p + 2, 2 * p)))
    return p, (f"[seed]\np = {p}\ncoeffs = {' '.join(map(str, coeffs))}\n"
               f"trunc = {trunc}\n")


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
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("command,body", (
        ("wedge-reduce", "[wedge]\np = five\njets = 2 3; 4 1\n"),
        ("galois-orders", "[galois]\np = 3\nm = x\nn = 1\n"),
        ("wedge-reduce", "[wedge]\np = 0\njets = 2 3; 4 1\n"),
        ("wedge-reduce", "[wedge]\np = 4\njets = 2 3; 2 1\n"),
        ("wedge-extend", "[wedge]\np = 4\njets = 2 3; 2 1\ns = 2\n"),
        ("tower-build", TOWER + "level = 0\n"),
        ("tower-build", TOWER + "level = -1\n"),
        ("divide", TOWER + "t0 = 5\nlevel = 0\n"),
        ("divide", TOWER + "t0 = 5\nlevel = -1\n"),
        ("lt-group-law", "[seed]\np = 5\nkind = standard\ntrunc = 0\n"),
        ("elliptic-fg", CURVE + "trunc = -3\n"),
        ("elliptic-fg", CURVE + "trunc = 0\n"),
        ("elliptic-match", CURVE + "trunc = 0\n"),
        ("elliptic-fg --trunc 0", CURVE),
        ("elliptic-match --trunc 0", CURVE),
        ("elliptic-fg --trunc 0", CURVE + "trunc = 12\n"),
        ("elliptic-fg", CURVE + "a = 2\n"),
        ("elliptic-fg", "a = -1\n" + CURVE),
        ("lt-iso", SEEDS + "trunc = 8\nprecision = 9\n"),
        ("lt-iso", SEEDS + "trunc = 8\nprecision = 22\n"),
        ("cm-pi", GAUSS + "fp_index = 5\n"),
        ("cm-pi", GAUSS + "fp_index = -1\n"),
        ("cm-embed", GAUSS.replace("[cm]", "precision = 30\n[cm]")
         + "alpha = 2 1\n"),
        ("lt-group-law", "[seed]\np = 5\nkind = standard\nbogus = 1\n"),
        ("galois-orders", "[galois]\np = 3\nm = 2\nn = 1\n[extra]\n"),
        ("lt-endo", "[seed]\np = 5\nkind = standard\na = 3%\n"),
        ("lt-group-law", "[DEFAULT]\np = 7\n[seed]\nkind = standard\n"),
        ("divide", TOWER + "t0 = 0\n"),
        ("tower-conductor", TOWER + "t0 = 0\n"),
        ("galois-orders", "[galois]\np = 3\nm = 40\nn = 1\n"),
        ("lt-group-law", f"[seed]\np = {HUGE_P}\nkind = standard\n"),
        ("lt-endo", f"[seed]\np = {HUGE_P}\nkind = multiplicative\n"
         "trunc = 12\na = 2\n"),
        ("galois-orders", f"[galois]\np = {HUGE_P}\nm = 2\nn = 1\n"),
    ), ids=("wedge-p-word", "galois-m-word", "wedge-p-zero",
            "wedge-reduce-p-composite", "wedge-extend-p-composite",
            "tower-build-level-zero", "tower-build-level-negative",
            "divide-level-zero", "divide-level-negative", "seed-trunc-zero",
            "elliptic-fg-trunc-negative", "elliptic-fg-trunc-zero",
            "elliptic-match-trunc-zero", "elliptic-fg-flag-trunc-zero",
            "elliptic-match-flag-trunc-zero",
            "elliptic-fg-flag-trunc-zero-over-config", "ini-repeated-key",
            "ini-no-section-header", "seed2-trunc-and-precision",
            "seed2-trunc", "cm-pi-index-past-2g", "cm-pi-index-negative",
            "field-precision-key", "seed-unknown-key", "unknown-section",
            "percent-in-value", "default-section", "divide-t0-torsion",
            "tower-conductor-t0-torsion", "galois-depth-past-bound",
            "seed-p-huge", "seed-p-above-trunc", "galois-p-huge"))
    def test_bad_value_is_validation_error(self, tmp_path, capsys, command,
                                           body, sizes_checked_first):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(body)
        assert main([*command.split(), "--config", str(cfg)]) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("elliptic-fg", "elliptic-match"))
    @pytest.mark.parametrize("p", (0, 1, 2, 4, -13, 9, 21, 25))
    def test_p_not_an_odd_prime_is_validation_error(self, tmp_path, capsys,
                                                    command, p):
        cfg = tmp_path / "curve.ini"
        cfg.write_text(f"[elliptic]\na = -1\nb = 0\np = {p}\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert "p must be an odd prime" in capsys.readouterr().err

    def test_elliptic_match_needs_cm_by_gaussians(self, tmp_path, capsys):
        """b != 0 gives j != 1728: no CM by Z[i], so no Frobenius match."""
        cfg = tmp_path / "curve.ini"
        cfg.write_text("[elliptic]\na = 2\nb = 3\np = 13\ntrunc = 16\n")
        assert main(["elliptic-match", "--config", str(cfg)]) == 2
        assert "needs CM by Z[i]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("wedge-reduce", "wedge-extend"))
    @pytest.mark.parametrize("jets", ("1; 2", ";", "1 2 3; 2 1 1"))
    def test_non_square_jets_are_validation_errors(self, tmp_path, capsys,
                                                   command, jets):
        cfg = tmp_path / "wedge.ini"
        cfg.write_text(f"[wedge]\np = 5\njets = {jets}\ns = 1\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,entry", (
        ("wedge-reduce", "reduce_wedge"), ("wedge-extend", "extend_to_g")))
    @pytest.mark.parametrize("tamper", ("final", "transform"))
    def test_uncertified_transcript_is_invariant_error(
            self, monkeypatch, capsys, command, entry, tamper):
        """The runners check the transcript before they report it."""
        run = getattr(cli, entry)

        def tampered(*args):
            tr = run(*args)
            if tamper == "final":
                tr.final = tr.final[::-1]
            else:
                # replays to the same jets mod p; determinant 1 + p
                tr.transform[0] = [(1 + tr.initial[0].p) * a
                                   for a in tr.transform[0]]
            return tr

        monkeypatch.setattr(cli, entry, tampered)
        assert main([command, "--config",
                     os.path.join(CONFIG_DIR, "wedge_p5_s2.ini")]) == 4
        assert "invariant falsified" in capsys.readouterr().err

    @pytest.mark.parametrize("command,body,message", (
        ("cm-pi --precision 1", GAUSS + "fp_index = 0\n",
         "valuation 1 needs N >= 2"),
        ("tower-conductor --precision 1", TOWER + "t0 = 5\n",
         "valuation 1 needs N >= 2"),
        ("divide --precision 2", CAPPED_T0, "raise --precision to at least 3"),
        ("tower-conductor --precision 2", CAPPED_T0,
         "raise --precision to at least 3"),
    ), ids=("cm-pi-precision-one", "tower-conductor-precision-one",
            "divide-t0-capped", "tower-conductor-t0-capped"))
    def test_short_precision_is_inconclusive(self, tmp_path, capsys,
                                             command, body, message):
        cfg = tmp_path / "short.ini"
        cfg.write_text(body)
        assert main([*command.split(), "--config", str(cfg)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("divide", "tower-conductor"))
    def test_capped_t0_certifies_at_the_named_precision(self, tmp_path,
                                                        command):
        """The exit-3 message for t0 = 9 at N = 2 names N = 3, and N = 3
        certifies."""
        cfg = tmp_path / "t0.ini"
        cfg.write_text(CAPPED_T0)
        assert [main([command, "--config", str(cfg), "--precision", str(N),
                      "--out", str(tmp_path / "report.json")])
                for N in (2, 3, 7)] == [3, 0, 0]

    @pytest.mark.parametrize("N", range(2, 10))
    def test_conductor_certifies_from_precision_two(self, tmp_path, N):
        """The conductor values a head against a tail bound and solves no
        series, so its fixture certifies at every N >= 2 (N = 1 is short
        for the seed itself, above), with the results it gives at N + 5."""
        path = os.path.join(CONFIG_DIR, "tower_mult_p5.ini")

        def results(precision):
            out = tmp_path / f"report-{precision}.json"
            assert main(["tower-conductor", "--config", path, "--precision",
                         str(precision), "--out", str(out)]) == 0
            return json.loads(out.read_text())["results"]

        assert results(N) == results(N + 5)

    @settings(max_examples=25, deadline=None)
    @given(tower_seed(), st.integers(2, 12))
    def test_tower_reports_agree_at_N_and_N_plus_5(self, tmp_path_factory,
                                                   seed, N):
        """tower-build and tower-disc at N give the results of N + 5, h_1
        and h_2 read mod p^N, or N is inconclusive (exit 3); N + 5 >= 7 is
        above p, so it certifies."""
        p, body = seed
        path = tmp_path_factory.mktemp("ladder") / "tower.ini"
        path.write_text(body)

        def results(command, precision):
            cfg = RunConfig.load(command, str(path), {"precision": precision})
            return dispatch(cfg)["results"]

        for command in ("tower-build", "tower-disc"):
            want = results(command, N + 5)
            try:
                got = results(command, N)
            except PrecisionError:
                continue
            if command == "tower-build":
                mod = p ** N
                for level in want["levels"]:
                    level["coeffs"] = [c % mod for c in level["coeffs"]]
            assert got == want

    @pytest.mark.parametrize("precision", (1, 2))
    @pytest.mark.parametrize("command,config", FIXTURES)
    def test_fixture_at_short_precision(self, tmp_path, capsys, command,
                                        config, precision):
        """Short precision either certifies or is inconclusive (exit 3):
        never a validation error (2) or a falsified invariant (4)."""
        code = main([command, "--config", os.path.join(CONFIG_DIR, config),
                     "--precision", str(precision),
                     "--out", str(tmp_path / "report.json")])
        assert code in (0, 3), capsys.readouterr().err

    @pytest.mark.parametrize("trunc,code", ((12, 3), (13, 0)))
    def test_elliptic_match_needs_trunc_at_least_p(self, tmp_path, capsys,
                                                   trunc, code):
        """Below degree p every associate passes the congruence: the run
        is inconclusive and names the truncation it needs."""
        cfg = tmp_path / "curve.ini"
        cfg.write_text(CURVE)
        out = tmp_path / "report.json"
        assert main(["elliptic-match", "--config", str(cfg), "--trunc",
                     str(trunc), "--out", str(out)]) == code
        if code:
            assert "raise --trunc to at least p = 13" in capsys.readouterr().err

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
            # run from src/, so the checkout's package is the one imported
            cwd=os.path.join(os.path.dirname(__file__), "..", "src"),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["cyclic"]
