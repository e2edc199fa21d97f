"""Command-line front end: one command per invocation, INI config in,
deterministic JSON report out.

Exit codes: 0 success, 2 validation, 3 precision-inconclusive (including
uncertified division roots), 4 mathematical invariant falsified.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
import time

from .errors import (HenselError, InvariantError, PrecisionError,
                     ValidationError)
from .padic import PadicInt
from .lubin_tate import LTSeed, check_trunc, endo, group_law, strict_iso
from .cm_split import CMField, embed, pick_pi
from .local_tower import (DivisionState, EisensteinTower, divide_point,
                          division_conductor, character_conductor_floor,
                          level_disc)
from .galois_model import tower_indices
from .unit_wedge import CftOracle, UnitJet, extend_to_g, reduce_wedge
from .elliptic_fg import (WeierstrassCurve, curve_group_law,
                          frobenius_candidates, frobenius_check,
                          gauss_embed_root, match_lubin_tate,
                          point_count_ap)

REPORT_VERSION = 1

COMMANDS = (
    "lt-group-law", "lt-endo", "lt-iso", "cm-embed", "cm-pi",
    "tower-build", "tower-disc", "tower-conductor", "divide",
    "wedge-reduce", "wedge-extend", "galois-orders", "elliptic-fg",
    "elliptic-match",
)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

# the keys of each INI section (README, "INI sections by command family");
# a config with any other section or key is refused, not partly read
_SEED_KEYS = {"p", "kind", "coeffs", "trunc", "precision", "a"}
SECTION_KEYS = {
    "seed": _SEED_KEYS, "seed2": _SEED_KEYS,
    "field": {"poly", "p", "conj", "cm_type", "autos"},
    "cm": {"alpha", "fp_index"}, "tower": {"t0", "level"},
    "wedge": {"p", "jets", "s", "oracle"}, "galois": {"p", "m", "n"},
    "elliptic": {"a", "b", "p", "trunc"},
}

# The largest seed truncation D a command takes: a seed is a dense list
# of D + 1 coefficients, so the size is refused (exit 2) before a seed of
# that size is built.  The fixtures and benchmark jobs use D <= 14; 100
# leaves room for D = 2p = 74 at p = 37, where the Coates-Wiles
# homomorphisms find 37 | B_32 (ROADMAP item 9).
MAX_SEED_TRUNC = 100


class RunConfig:
    """Parsed and validated parameters for one command."""

    def __init__(self, command: str, sections: dict, overrides: dict):
        if command not in COMMANDS:
            raise ValidationError(f"unknown command {command!r}")
        self.command = command
        self.sections = sections
        self.precision = overrides.get("precision")
        self.trunc = overrides.get("trunc")
        self.oracle_mode = overrides.get("oracle") or self.get(
            "wedge", "oracle", "axiom")

    @classmethod
    def load(cls, command: str, path: "str | None", overrides: dict):
        sections = {}
        if path:
            # values are read as written: no %-interpolation
            cp = configparser.ConfigParser(interpolation=None)
            try:
                read = cp.read(path)
            except configparser.Error as exc:
                raise ValidationError(str(exc)) from None
            if not read:
                raise ValidationError(f"config file not found: {path}")
            # a [DEFAULT] section would flow into every other one
            if cp.defaults():
                raise ValidationError(
                    "unknown config section or key: [DEFAULT] "
                    + " ".join(sorted(cp.defaults())))
            sections = {s: dict(cp.items(s)) for s in cp.sections()}
        for name, body in sections.items():
            unknown = sorted(body.keys() - SECTION_KEYS.get(name, set()))
            if name not in SECTION_KEYS or unknown:
                raise ValidationError(f"unknown config section or key: "
                                      f"[{name}] {' '.join(unknown)}")
        return cls(command, sections, overrides)

    def get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    def require(self, section, key):
        v = self.get(section, key)
        if not v:
            raise ValidationError(
                f"missing config value [{section}] {key} for "
                f"{self.command}"
            )
        return v

    def integer(self, section, key, default=None, text=None):
        """An integer of the config: ``text`` when given (one entry of a
        list value), else the value of [section] key, else ``default``;
        a missing key without a default is an error.  Every integer the
        commands read comes through here, so a value that is not one is a
        validation error (exit 2), not a traceback."""
        if text is None:
            text = self.get(section, key)
            if not text:
                return self.require(section, key) if default is None else default
        try:
            return int(text)
        except ValueError:
            raise ValidationError(
                f"config value [{section}] {key} = {text!r} is not an integer"
            ) from None

    def integers(self, section, key, text=None):
        """The comma- or space-separated integers of [section] key, or of
        ``text`` (one row of it)."""
        if text is None:
            text = self.require(section, key)
        return [self.integer(section, key, text=x)
                for x in text.replace(",", " ").split()]

    def canonical(self) -> str:
        body = {
            "command": self.command,
            "sections": {s: dict(sorted(kv.items()))
                         for s, kv in sorted(self.sections.items())},
            "precision": self.precision,
            "trunc": self.trunc,
            "oracle": self.oracle_mode,
        }
        return json.dumps(body, sort_keys=True)

    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    # -- shared object builders ---------------------------------------

    # --trunc and --precision override a seed section, whose values fall
    # back to [seed]'s, then to max(2p, 10) and the truncation + 10
    def trunc_for(self, p: int, section="seed") -> int:
        if self.trunc is not None:
            return self.trunc
        return self.integer(section, "trunc", self.integer(
            "seed", "trunc", max(2 * p, 10)))

    def prec_for(self, trunc: int, section="seed") -> int:
        if self.precision is not None:
            return self.precision
        return self.integer(section, "precision", self.integer(
            "seed", "precision", trunc + 10))

    def seed(self, section="seed") -> LTSeed:
        p = self.integer(section, "p")
        kind = self.get(section, "kind")
        D = self.trunc_for(p, section)
        if D > MAX_SEED_TRUNC:
            raise ValidationError(
                f"truncation degree {D} is above {MAX_SEED_TRUNC}, the "
                "largest a seed takes")
        check_trunc(p, D)
        N = self.prec_for(D, section)
        if kind == "multiplicative":
            return LTSeed.multiplicative(p, N, D)
        if kind == "standard":
            return LTSeed.standard(p, N, D)
        if kind:
            raise ValidationError(f"unknown seed kind {kind!r}")
        return LTSeed.from_coeffs(p, N, D, self.integers(section, "coeffs"))

    def field(self) -> CMField:
        poly = self.integers("field", "poly")
        p = self.integer("field", "p")
        N = self.prec_for(self.trunc_for(p))
        conj = self.integers("field", "conj")
        cm_type = set(self.integers("field", "cm_type"))
        autos_raw = self.get("field", "autos")
        autos = None
        if autos_raw:
            autos = [self.integers("field", "autos", row)
                     for row in autos_raw.split(";")]
        return CMField(poly, p, N, conj, cm_type, autos)

    def jets(self):
        p = self.integer("wedge", "p")
        rows = self.require("wedge", "jets").split(";")
        return [UnitJet(p, tuple(self.integers("wedge", "jets", r)))
                for r in rows]


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _run_lt_group_law(cfg: RunConfig):
    seed = cfg.seed()
    F = group_law(seed).F
    return {"law": F.to_json()}, [
        "group law solved degree by degree from the seed"]


def _run_lt_endo(cfg: RunConfig):
    seed = cfg.seed()
    a = cfg.integer("seed", "a")
    s = endo(seed, a)
    return {"a": a, "series": s.to_json()}, [
        "endomorphism from the intertwining recursion"]


def _run_lt_iso(cfg: RunConfig):
    src = cfg.seed("seed")
    dst = cfg.seed("seed2")
    iso = strict_iso(src, dst)
    return {
        "series": iso.to_json(),
        "jacobian": [[iso.coefficient((1,)).to_json()]],
    }, ["strict isomorphism from the intertwining recursion"]


def _run_cm_embed(cfg: RunConfig):
    K = cfg.field()
    alpha = K.element(cfg.integers("cm", "alpha"))
    vec = embed(K, alpha)
    return {
        "values": [x.to_json() for x in vec],
        "valuations": [x.valuation() for x in vec],
    }, ["coordinates are evaluations at the lifted roots"]


def _run_cm_pi(cfg: RunConfig):
    K = cfg.field()
    fp = cfg.integer("cm", "fp_index")
    pi = pick_pi(K, fp)
    vec = embed(K, pi)
    return {
        "pi": pi.to_json(),
        "valuations": [x.valuation() for x in vec],
    }, ["smallest-coefficient element with the required valuations"]


def _tower(cfg: RunConfig) -> EisensteinTower:
    return EisensteinTower(cfg.seed())


def _tower_level(cfg: RunConfig, default: int) -> int:
    n = cfg.integer("tower", "level", default)
    if n < 1:
        raise ValidationError(f"[tower] level must be at least 1, got {n}")
    return n


def _run_tower_build(cfg: RunConfig):
    tw = _tower(cfg)
    n = _tower_level(cfg, 2)
    out = []
    for k in range(1, n + 1):
        h = tw.h(k)
        out.append({
            "level": k,
            "degree": h.degree,
            "coeffs": h.coeffs,
        })
    return {"levels": out}, [
        "each level certified Eisenstein by its Newton polygon"]


def _run_tower_disc(cfg: RunConfig):
    tw = _tower(cfg)
    disc = level_disc(tw)
    floor = character_conductor_floor(tw)
    return {"disc": disc, "conductor_floor": floor}, [
        "discriminant by direct valuation and Sylvester resultant, "
        "cross-checked",
        "floor from the conductor-discriminant identity",
    ]


def _division_state(cfg: RunConfig, tw: EisensteinTower):
    """The start state of t0; a nonzero t0 that is 0 mod p^N has a depth
    the precision cannot see (exit 3), while t0 = 0 is torsion (exit 2)."""
    t0 = cfg.integer("tower", "t0")
    x = PadicInt(tw.p, tw.N, t0)
    if t0 and x.valuation() is None:
        v = next(k for k in range(tw.N, abs(t0)) if t0 % tw.p ** (k + 1))
        raise PrecisionError(
            f"t0 = {t0} is 0 mod p^{tw.N}, so its depth {v} is capped; "
            f"raise --precision to at least {v + 1}")
    return DivisionState.start(x)


def _run_divide(cfg: RunConfig):
    tw = _tower(cfg)
    st = _division_state(cfg, tw)
    to_level = _tower_level(cfg, st.e)
    st = divide_point(tw, st, to_level)
    res = {
        "e": st.e,
        "level": st.level,
        "roots": [r.to_json() for r in st.history],
        "ramified_at": st.ramified_at,
    }
    if st.certificate is not None:
        res["certificate"] = st.certificate.to_json()
    return res, ["split steps carry certified base-field roots; the "
                 "ramified step carries an Eisenstein polygon"]


def _run_tower_conductor(cfg: RunConfig):
    tw = _tower(cfg)
    st = _division_state(cfg, tw)
    st = divide_point(tw, st, st.e)
    rep = division_conductor(tw, st)
    return rep.to_json(), list(rep.provenance)


def _run_wedge_reduce(cfg: RunConfig):
    jets = cfg.jets()
    oracle = CftOracle(cfg.oracle_mode)
    tr = reduce_wedge(jets, oracle)
    tr.check()
    return tr.to_json(), ["unimodular elimination ladder; "
                          f"oracle mode {oracle.mode}"]


def _run_wedge_extend(cfg: RunConfig):
    jets = cfg.jets()
    s = cfg.integer("wedge", "s")
    oracle = CftOracle(cfg.oracle_mode)
    tr = extend_to_g(jets, s, oracle)
    tr.check()
    return tr.to_json(), ["tail primes cleared first, then the "
                          f"{s}-prime ladder; oracle mode {oracle.mode}"]


def _run_galois_orders(cfg: RunConfig):
    p = cfg.integer("galois", "p")
    m = cfg.integer("galois", "m")
    n = cfg.integer("galois", "n")
    return tower_indices(p, m, n), [
        "orders by exhaustive enumeration; cyclicity by generator order"]


def _elliptic(cfg: RunConfig):
    a = cfg.integer("elliptic", "a")
    b = cfg.integer("elliptic", "b")
    p = cfg.integer("elliptic", "p")
    D = (cfg.trunc if cfg.trunc is not None
         else cfg.integer("elliptic", "trunc", 20))
    E = WeierstrassCurve(a, b)
    return E, p, D


def _run_elliptic_fg(cfg: RunConfig):
    E, p, D = _elliptic(cfg)
    data = curve_group_law(E, D, p=p)
    F = {f"{i},{j}": c for (i, j), c in sorted(data.F.items())}
    return {
        "discriminant": E.discriminant,
        "law": F,
        # the log's reduced common denominator: the lcm of the
        # denominators of its coefficients
        "log_denominator_lcm": data.log.den,
    }, ["exact rational expansion; integrality of the law asserted"]


def _run_elliptic_match(cfg: RunConfig):
    E, p, D = _elliptic(cfg)
    N = cfg.prec_for(D)
    data = curve_group_law(E, D, p=p)
    root = gauss_embed_root(p, N)
    if D < p:
        # below degree p every associate passes: the congruence reads the
        # z^p term
        raise PrecisionError(
            f"truncation {D} does not reach the z^{p} term of the Frobenius "
            f"congruence; raise --trunc to at least p = {p}"
        )
    ap = point_count_ap(E, p)
    reports = [frobenius_check(data, c, root)
               for c in frobenius_candidates(ap, root)]
    passing = [r for r in reports if r["passes"]]
    if len(passing) != 1:
        raise InvariantError(
            f"expected exactly one passing associate, got {len(passing)}"
        )
    alpha = passing[0]["alpha"]
    iso = match_lubin_tate(data, passing[0])
    return {
        "a_p": ap,
        "candidates": [
            {"alpha": list(r["alpha"]), "passes": r["passes"],
             "first_fail": list(r["first_fail"]) if r["first_fail"] else None}
            for r in reports
        ],
        "alpha_P": list(alpha),
        # the linear coefficient of the embedded [i]: i e_1 [log]_1 = i
        "embedded_i": root.to_json(),
        "iso": iso.to_json(),
        "iso_jacobian": iso.coefficient((1,)).to_json(),
    }, [
        "trace by brute-force point count",
        "associate selected by the Frobenius congruence",
        "isomorphism from the intertwining recursion, exact mod p^N",
    ]


_RUNNERS = {
    "lt-group-law": _run_lt_group_law,
    "lt-endo": _run_lt_endo,
    "lt-iso": _run_lt_iso,
    "cm-embed": _run_cm_embed,
    "cm-pi": _run_cm_pi,
    "tower-build": _run_tower_build,
    "tower-disc": _run_tower_disc,
    "tower-conductor": _run_tower_conductor,
    "divide": _run_divide,
    "wedge-reduce": _run_wedge_reduce,
    "wedge-extend": _run_wedge_extend,
    "galois-orders": _run_galois_orders,
    "elliptic-fg": _run_elliptic_fg,
    "elliptic-match": _run_elliptic_match,
}


def dispatch(cfg: RunConfig) -> dict:
    """Run the configured command and assemble the report."""
    start = time.monotonic()
    results, provenance = _RUNNERS[cfg.command](cfg)
    return {
        "report_version": REPORT_VERSION,
        "command": cfg.command,
        "config_hash": cfg.hash(),
        "results": results,
        "provenance": provenance,
        "timing": {"wall_seconds": round(time.monotonic() - start, 6)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmtower",
        description="formal-group tower computations with exact p-adic "
                    "arithmetic",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--out", help="write the JSON report here "
                                      "(default stdout)")
    parser.add_argument("--precision", type=int, help="digits mod p^N")
    parser.add_argument("--trunc", type=int, help="series truncation degree")
    parser.add_argument("--oracle", choices=("axiom", "deny"),
                        help="class-field-theory oracle mode")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.load(args.command, args.config, {
            "precision": args.precision,
            "trunc": args.trunc,
            "oracle": args.oracle,
        })
        report = dispatch(cfg)
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except (PrecisionError, HenselError) as e:
        print(f"inconclusive at this precision: {e}", file=sys.stderr)
        return 3
    except InvariantError as e:
        print(f"invariant falsified: {e}", file=sys.stderr)
        return 4

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
