"""The benchmark's three workloads: input generation, job bodies and
output checks.

Every workload is a fixed batch of jobs.  The *shape* of each job (prime,
truncation, precision, which coefficients are nonzero, which command) is
drawn from a fixed generator, so the batch costs the same whatever the
seed; the seed draws the values (uniformizers, coefficients, multipliers,
points, curves).  Job cost at these sizes is steep in the shape and nearly
flat in the values, so fixing the shape keeps run-to-run spread low while
every seed still gives different inputs.

A job body calls the library through module attributes
(``lubin_tate.group_law(...)``), never through names bound at import, so
the traced run sees every call.  Checks run outside the timed region and
use only the benchmark's own arithmetic on the job's outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

from cmtower import cli, local_tower, lubin_tate, padic
from cmtower.errors import (HenselError, InvariantError, PrecisionError,
                            ValidationError)

# Exit codes of the command-line front end, by failure class.
EXIT_CODES = {"validation": 2, "precision": 3, "invariant": 4}

KNOWN_DEFECT = "known:conjugate-frobenius"


def failure_class(exc: BaseException) -> str:
    """The class a raised exception falls in, following the CLI mapping
    (validation 2, precision 3, invariant 4); anything else would be a
    traceback from the CLI and is a crash."""
    if isinstance(exc, ValidationError):
        return "validation"
    if isinstance(exc, (PrecisionError, HenselError)):
        return "precision"
    if isinstance(exc, InvariantError):
        return "invariant"
    return "crash"


def vp(x: int, p: int):
    """p-adic valuation of a nonzero integer; None for 0."""
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """A fixed batch of jobs: ``generate`` makes it from a seed, ``run``
    executes one job (calling ``span(name, fn, *args)`` around any step
    the harness should time as a layer), ``check`` lists what is wrong
    with an output, and ``canonical`` gives the part of an output whose
    digest must not change."""

    name = ""

    def expected_failure(self, job, cls):
        """The documented defect class a failure belongs to, or None."""
        return None

    def canonical(self, job, out):
        return out


class Job:
    __slots__ = ("id", "kind", "params", "short")

    def __init__(self, id, kind, params, short=False):
        self.id = id
        self.kind = kind
        self.params = params
        self.short = short


def _shape_rng(name):
    return random.Random(f"cmtower-bench/{name}/shapes")


def _value_rng(name, seed):
    return random.Random(f"cmtower-bench/{name}/values/{seed}")


def _series_coeffs(shape_rng, vals, p, D, pi):
    """Dense coefficient list [0, pi, a_2, ..., a_D] following the
    acceptance suite's random-seed recipe: t^p gets 1 + p*r, and every
    other degree is nonzero with probability 0.35, valued p*r."""
    coeffs = [0, pi]
    for k in range(2, D + 1):
        if k == p:
            coeffs.append(1 + p * vals.randrange(p))
        elif shape_rng.random() < 0.35:
            coeffs.append(p * vals.randrange(1, p * p))
        else:
            coeffs.append(0)
    return coeffs


def _eisenstein_coeffs(vals, p, pi):
    """A polynomial seed pi*t + a_2 t^2 + ... + u t^p with p | a_k and
    u = 1 mod p: the torsion polynomials of its tower are Eisenstein."""
    return ([0, pi] + [p * vals.randrange(0, p ** 3) for _ in range(2, p)]
            + [1 + p * vals.randrange(p)])


def _unit(vals, p, bound):
    while True:
        u = vals.randrange(1, bound)
        if u % p:
            return u


def _poly_eval(coeffs, x, mod):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def _check_law(law, problems, label="law"):
    """Group-law axioms on a {(i, j): c} dict: linear part X + Y,
    F(X, 0) = X, F(0, Y) = Y and commutativity."""
    if law.get((1, 0)) != 1 or law.get((0, 1)) != 1:
        problems.append(f"{label}: linear part is not X + Y")
    for (i, j), c in law.items():
        if c and (i == 0 or j == 0) and (i, j) not in ((1, 0), (0, 1)):
            problems.append(f"{label}: F(X, 0) != X at {(i, j)}")
            break
        if law.get((j, i)) != c:
            problems.append(f"{label}: not commutative at {(i, j)}")
            break


def _check_eisenstein(coeffs, p, degree, problems, label):
    if len(coeffs) != degree + 1:
        problems.append(f"{label}: degree {len(coeffs) - 1}, expected {degree}")
        return
    if vp(coeffs[0], p) != 1 or coeffs[-1] % p == 0 or any(
            c % p for c in coeffs[1:-1]):
        problems.append(f"{label}: not Eisenstein")


# ---------------------------------------------------------------------------
# lt_dense: the Lubin-Tate recursion on dense random seeds
# ---------------------------------------------------------------------------

class LtDense(Workload):
    """group_law, endo(a) and the uniqueness cross-check endo(pi) = d on
    dense random seeds: almost all the time is truncated-series
    multiplication and composition, and no determinant is taken."""

    name = "lt_dense"
    # truncation degree -> jobs, in random order
    SIZES = ((8, 14), (10, 20), (12, 26), (14, 20), (16, 14), (18, 3), (20, 3))
    # further D = 8 jobs drawn after those: with them the p50 rank falls in
    # a run of D = 10-12 jobs of like cost (about 21-23 ms) and the p90 rank
    # in a run of D = 14-16 jobs (about 124-130 ms), not on the jumps in
    # cost just above each run
    EXTRA_D8 = 10

    def generate(self, seed, workdir=None):
        shapes = _shape_rng(self.name)
        vals = _value_rng(self.name, seed)
        slots = [D for D, n in self.SIZES for _ in range(n)]
        shapes.shuffle(slots)
        slots += [8] * self.EXTRA_D8
        jobs = []
        for i, D in enumerate(slots):
            p = (3, 5, 7)[i % 3]
            pi = p * vals.randrange(1, p)
            coeffs = _series_coeffs(shapes, vals, p, D, pi)
            params = {"p": p, "D": D, "N": D + 12, "coeffs": coeffs,
                      "a": vals.randrange(1, p ** 3)}
            jobs.append(Job(f"{i:03d}-p{p}-D{D}", "lt", params, short=D <= 10))
        return jobs

    def run(self, job, span):
        q = job.params
        p, N = q["p"], q["N"]
        seed = lubin_tate.LTSeed.from_coeffs(p, N, q["D"], q["coeffs"])
        law = lubin_tate.group_law(seed).F
        endo_a = lubin_tate.endo(seed, padic.PadicInt(p, N, q["a"]))
        endo_pi = lubin_tate.endo(seed, seed.pi_val)
        return {"law": law, "endo_a": endo_a, "endo_pi": endo_pi,
                "unique": endo_pi.congruent(seed.d)}

    def canonical(self, job, out):
        return {"law": out["law"].to_json(), "endo_a": out["endo_a"].to_json(),
                "endo_pi": out["endo_pi"].to_json(), "unique": out["unique"]}

    def check(self, job, out):
        q = job.params
        problems = []
        law = out["law"]
        _check_law(law.coeffs, problems)
        if law.eff_prec < 1:
            problems.append("law has no certified digits")
        if out["endo_a"].coeffs.get((1,)) != q["a"] % q["p"] ** q["N"]:
            problems.append("endo(a) has the wrong linear coefficient")
        if out["unique"] is not True:
            problems.append("endo(pi) differs from the seed series")
        return problems


# ---------------------------------------------------------------------------
# tower: discriminants and conductors of random Eisenstein towers
# ---------------------------------------------------------------------------

class Tower(Workload):
    """The tower-disc and tower-conductor path on random Eisenstein
    polynomial seeds: build levels 1-2, the level-2 discriminant by both
    routes, the conductor floor, division of t0 = p^e u and the conductor
    of the ramified step.  Almost all the time is ring_det over level-1
    tower elements (the Sylvester resultant route)."""

    name = "tower"
    # prime -> jobs; the p50 rank sits in the p = 3 group and the p90 rank
    # in the p = 5 group, away from the p = 7 jobs
    SIZES = ((3, 68), (5, 30), (7, 2))

    def generate(self, seed, workdir=None):
        shapes = _shape_rng(self.name)
        vals = _value_rng(self.name, seed)
        slots = [p for p, n in self.SIZES for _ in range(n)]
        shapes.shuffle(slots)
        jobs = []
        for i, p in enumerate(slots):
            trunc = shapes.choice((p + 2, 2 * p))
            N = shapes.randrange(20, 41)
            e = shapes.choice((1, 2))
            coeffs = _eisenstein_coeffs(vals, p, p * vals.randrange(1, p))
            t0 = p ** e * _unit(vals, p, p ** 4)
            params = {"p": p, "N": N, "trunc": trunc, "coeffs": coeffs,
                      "e": e, "t0": t0}
            jobs.append(Job(f"{i:03d}-p{p}-e{e}", "tower", params,
                            short=p == 3))
        return jobs

    def run(self, job, span):
        q = job.params
        p, N = q["p"], q["N"]
        seed = lubin_tate.LTSeed.from_coeffs(p, N, q["trunc"], q["coeffs"])
        tw = local_tower.EisensteinTower(seed)
        tw.build(2)
        disc = local_tower.level_disc(tw)
        floor = local_tower.character_conductor_floor(tw)
        start = local_tower.DivisionState.start(padic.PadicInt(p, N, q["t0"]))
        state = local_tower.divide_point(tw, start, q["e"])
        rep = local_tower.division_conductor(tw, state)
        return {"levels": [list(h.coeffs) for h in tw.levels[:2]],
                "disc": disc, "floor": floor,
                "roots": [r.value for r in state.history],
                "ramified_at": state.ramified_at, "conductor": rep.to_json()}

    def check(self, job, out):
        q = job.params
        p, e = q["p"], q["e"]
        mod = p ** q["N"]
        problems = []
        for k, h in enumerate(out["levels"], start=1):
            _check_eisenstein(h, p, p ** (k - 1) * (p - 1), problems,
                              f"level {k}")
        if out["disc"] != p * (p - 1):
            problems.append(f"disc {out['disc']} != p(p-1)")
        if out["floor"] != p:
            problems.append(f"conductor floor {out['floor']} != p")
        if out["ramified_at"] != e or len(out["roots"]) != e - 1:
            problems.append("division did not ramify at the depth invariant")
        prev = q["t0"]
        for r in out["roots"]:
            if _poly_eval(q["coeffs"], r, mod) != prev % mod:
                problems.append("division root does not map to its predecessor")
            prev = r
        rep = out["conductor"]
        if (set(rep["deltas"]) != {str(a) for a in range(1, p)}
                or set(rep["deltas"].values()) != {2}):
            problems.append(f"jumps {rep['deltas']} are not all 2")
        if rep["conductor_exponent"] != 2 or rep["disc_exponent"] != 2 * (p - 1):
            problems.append("conductor exponent is not 2")
        return problems


# ---------------------------------------------------------------------------
# cli_mix: all 14 commands through the CLI path
# ---------------------------------------------------------------------------

def _quartic_class(a, p):
    """a^((p-1)/4) mod p: which of the four quartic twists y^2 = x^3 + a x
    is, for p = 1 mod 4."""
    return pow(a % p, (p - 1) // 4, p)


def _frobenius(a, p):
    """Trace of Frobenius of y^2 = x^3 + a x by point count, and the
    Gaussian Frobenius (x, y) at the prime (p, i - r0), r0 the smallest
    square root of -1 mod p (the prime the library embeds into)."""
    squares = {}
    for y in range(p):
        squares[y * y % p] = squares.get(y * y % p, 0) + 1
    count = 1 + sum(squares.get((x ** 3 + a * x) % p, 0) for x in range(p))
    ap = p + 1 - count
    x = ap // 2
    y = math.isqrt(p - x * x)
    r0 = min(r for r in range(p) if (r * r + 1) % p == 0)
    return ap, (x, y if (x + y * r0) % p == 0 else -y)


def _ini(sections):
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in body.items())
        lines.append("")
    return "\n".join(lines)


def _ints(xs):
    return " ".join(str(x) for x in xs)


class CliMix(Workload):
    """Generated INI configs for all 14 commands, run the way the CLI runs
    them: RunConfig.load, dispatch, JSON report.  Jobs are small, so
    per-object overhead (residue construction, validation, JSON) matters,
    and series are sparse and small; elliptic-match is the heavy tail.
    Curves sample every quartic twist equally, which is their natural
    frequency: half the elliptic-match jobs hit the conjugate-Frobenius
    defect and exit 4 at this commit."""

    name = "cli_mix"

    # per command: the fixed job shapes (values come from the seed)
    LT = ((3, "standard", 8), (5, "multiplicative", 10), (7, "standard", 12),
          (3, "coeffs", 10), (5, "coeffs", 12), (7, "multiplicative", 14),
          (3, "coeffs", 12), (5, "standard", 14))
    ISO = ((3, "coeffs", "standard", 8), (5, "standard", "multiplicative", 10),
           (7, "coeffs", "multiplicative", 10),
           (3, "multiplicative", "coeffs", 12), (5, "coeffs", "coeffs", 8),
           (7, "standard", "coeffs", 12), (3, "standard", "multiplicative", 14),
           (5, "multiplicative", "standard", 12))
    CM = (5, 13, 3, 7, 17, 11, 29, 5)
    TOWER = ((3, "standard", 2), (5, "multiplicative", 2), (3, "coeffs", 1),
             (5, "coeffs", 2), (3, "multiplicative", 1), (5, "standard", 1),
             (3, "coeffs", 2), (5, "coeffs", 1))
    # six p = 5 discriminants: the p90 rank of the batch falls among them
    DISC = ((5, "standard"), (3, "coeffs"), (5, "coeffs"), (5, "multiplicative"),
            (3, "standard"), (5, "coeffs"), (5, "standard"), (5, "coeffs"))
    DIVIDE = ((3, "coeffs", 1, 1), (5, "standard", 2, 2), (3, "multiplicative", 3, 2),
              (5, "coeffs", 1, 3), (3, "standard", 2, 3), (5, "multiplicative", 3, 3),
              (3, "coeffs", 3, 1), (5, "coeffs", 2, 1))
    WEDGE = ((3, 2, 2, "axiom"), (5, 3, 3, "axiom"), (7, 4, 4, "axiom"),
             (3, 5, 5, "deny"), (5, 2, 2, "deny"), (7, 3, 3, "axiom"),
             (3, 4, 4, "axiom"), (5, 5, 5, "axiom"))
    EXTEND = ((3, 3, 2, "axiom"), (5, 4, 2, "axiom"), (7, 5, 3, "axiom"),
              (3, 4, 3, "deny"), (5, 5, 4, "axiom"), (7, 3, 1, "axiom"),
              (3, 5, 2, "axiom"), (5, 3, 3, "axiom"))
    GALOIS = ((3, 1, 1), (3, 2, 1), (3, 3, 2), (3, 3, 3), (5, 1, 1), (5, 2, 2),
              (5, 2, 1), (5, 3, 3))
    CURVES = ((5, 12), (13, 16), (17, 20), (29, 14), (5, 20), (13, 12),
              (17, 14), (29, 20))
    # elliptic-match needs trunc >= p for the Frobenius congruence to
    # single out one associate; one job per quartic twist and shape.  p = 29
    # (trunc 29) is left out: its two passing jobs alone took 70% of the
    # batch time, which then no longer reflected the small jobs
    MATCH = ((5, 12), (13, 16), (17, 18), (13, 20))

    def generate(self, seed, workdir):
        shapes = _shape_rng(self.name)
        vals = _value_rng(self.name, seed)
        specs = []   # (command, sections, params)

        def seed_section(p, kind, trunc, pi=None, poly=False):
            if kind != "coeffs":
                return {"p": p, "kind": kind, "trunc": trunc}
            pi = p * vals.randrange(1, p) if pi is None else pi
            if poly:
                coeffs = _eisenstein_coeffs(vals, p, pi)
            else:
                coeffs = _series_coeffs(shapes, vals, p, trunc, pi)
            return {"p": p, "coeffs": _ints(coeffs), "trunc": trunc}

        for cmd in ("lt-group-law", "lt-endo"):
            for p, kind, trunc in self.LT:
                sec = seed_section(p, kind, trunc)
                if cmd == "lt-endo":
                    sec["a"] = vals.randrange(1, p ** 3)
                specs.append((cmd, {"seed": sec}, {"p": p, "kind": kind,
                                                   "trunc": trunc}))
        for p, k1, k2, trunc in self.ISO:
            s1 = seed_section(p, k1, trunc, pi=p)
            s2 = seed_section(p, k2, trunc, pi=p)
            s2.pop("trunc")
            specs.append(("lt-iso", {"seed": s1, "seed2": s2},
                          {"p": p, "trunc": trunc}))
        for cmd in ("cm-embed", "cm-pi"):
            for i, p in enumerate(self.CM):
                d = vals.choice([d for d in range(1, 60)
                                 if d % p and pow(-d % p, (p - 1) // 2, p) == 1])
                field = {"poly": _ints((d, 0, 1)), "p": p, "conj": "0 -1",
                         "cm_type": "0"}
                alpha = (vals.randrange(-9, 10), vals.randrange(1, 10))
                cm = {"alpha": _ints(alpha), "fp_index": i % 2}
                specs.append((cmd, {"field": field, "cm": cm},
                              {"p": p, "d": d, "alpha": alpha,
                               "fp_index": i % 2,
                               "N": max(2 * p, 10) + 10}))
        for p, kind, level in self.TOWER:
            specs.append(("tower-build",
                          {"seed": seed_section(p, kind, 2 * p, poly=True),
                           "tower": {"level": level}},
                          {"p": p, "level": level}))
        for p, kind in self.DISC:
            specs.append(("tower-disc",
                          {"seed": seed_section(p, kind, 2 * p, poly=True)},
                          {"p": p}))
        for p, kind, e, _ in self.DIVIDE:
            sec = seed_section(p, kind, 2 * p, poly=True)
            t0 = p ** min(e, 2) * _unit(vals, p, p ** 4)
            specs.append(("tower-conductor", {"seed": sec, "tower": {"t0": t0}},
                          {"p": p, "e": min(e, 2)}))
        for p, kind, e, level in self.DIVIDE:
            sec = seed_section(p, kind, 2 * p, poly=True)
            t0 = p ** e * _unit(vals, p, p ** 4)
            specs.append(("divide",
                          {"seed": sec, "tower": {"t0": t0, "level": level}},
                          {"p": p, "e": e, "level": level, "t0": t0,
                           "N": 2 * p + 10, "seed_section": sec}))
        for cmd, table in (("wedge-reduce", self.WEDGE),
                           ("wedge-extend", self.EXTEND)):
            for p, g, s, oracle in table:
                jets = [[vals.randrange(p) for _ in range(g)] for _ in range(g)]
                wedge = {"p": p, "jets": "; ".join(_ints(j) for j in jets),
                         "s": s, "oracle": oracle}
                specs.append((cmd, {"wedge": wedge},
                              {"p": p, "oracle": oracle}))
        for p, m, n in self.GALOIS:
            specs.append(("galois-orders", {"galois": {"p": p, "m": m, "n": n}},
                          {"p": p, "m": m, "n": n}))
        for p, trunc in self.CURVES:
            a = vals.choice([a for a in range(1 - p, p) if a % p])
            specs.append(("elliptic-fg",
                          {"elliptic": {"a": a, "b": 0, "p": p, "trunc": trunc}},
                          {"p": p, "a": a}))
        for p, trunc in self.MATCH:
            twists = sorted({_quartic_class(a, p) for a in range(1, p)})
            for cls in twists:
                a = vals.choice([a for a in range(1 - p, p)
                                 if a % p and _quartic_class(a, p) == cls])
                specs.append(("elliptic-match",
                              {"elliptic": {"a": a, "b": 0, "p": p,
                                            "trunc": trunc}},
                              {"p": p, "a": a}))

        first = set()
        jobs = []
        order = list(range(len(specs)))
        shapes.shuffle(order)
        os.makedirs(workdir, exist_ok=True)
        for i, k in enumerate(order):
            cmd, sections, params = specs[k]
            short = cmd not in first and (cmd != "elliptic-match"
                                          or params["p"] == 5)
            if cmd != "elliptic-match":
                first.add(cmd)
            path = os.path.join(workdir, f"{i:03d}-{cmd}.ini")
            with open(path, "w") as fh:
                fh.write(_ini(sections))
            params = dict(params, command=cmd, path=path)
            jobs.append(Job(f"{i:03d}-{cmd}", cmd, params, short=short))
        return jobs

    def run(self, job, span):
        cfg = cli.RunConfig.load(job.kind, job.params["path"], {})
        report = cli.dispatch(cfg)
        return {"report": report, "text": span("cli.report", _report_text, report)}

    # Keys of a report at this commit, minus timing: the digest covers
    # them and nothing else, so a later report block does not read as a
    # wrong output.
    REPORT_KEYS = ("report_version", "command", "config_hash", "results",
                   "provenance")

    def canonical(self, job, out):
        return {k: out["report"].get(k) for k in self.REPORT_KEYS}

    def expected_failure(self, job, cls):
        """The documented defect: frobenius_candidates lists the four
        associates of x + |y| i but not the conjugate, so when the
        Frobenius at the embedded prime is x - |y| i elliptic-match exits 4
        on a valid input."""
        if job.kind != "elliptic-match" or cls != "invariant":
            return None
        _, (_, y) = _frobenius(job.params["a"], job.params["p"])
        return KNOWN_DEFECT if y < 0 else None

    def check(self, job, out):
        res = json.loads(out["text"])["results"]
        q = job.params
        p = q["p"]
        problems = []
        getattr(self, "_check_" + job.kind.replace("-", "_"))(q, res, problems)
        return problems

    def _law(self, coeffs):
        return {tuple(int(x) for x in k.split(",")): v for k, v in coeffs.items()}

    def _check_lt_group_law(self, q, res, problems):
        law = self._law(res["law"]["coeffs"])
        _check_law(law, problems)
        if q["kind"] == "multiplicative" and law != {(1, 0): 1, (0, 1): 1,
                                                     (1, 1): 1}:
            problems.append("multiplicative law is not X + Y + XY")

    def _check_lt_endo(self, q, res, problems):
        s = res["series"]
        if s["coeffs"].get("1") != res["a"] % q["p"] ** s["N"]:
            problems.append("endo has the wrong linear coefficient")

    def _check_lt_iso(self, q, res, problems):
        if res["jacobian"][0][0]["value"] != 1 or \
                res["series"]["coeffs"].get("1") != 1:
            problems.append("strict isomorphism is not tangent to the identity")

    def _embedding_identities(self, q, values, problems):
        a0, a1 = q["alpha"]
        mod = q["p"] ** q["N"]
        v0, v1 = values
        if (v0 + v1 - 2 * a0) % mod or (v0 * v1 - a0 * a0 - q["d"] * a1 * a1) % mod:
            problems.append("embeddings do not have alpha's trace and norm")

    def _check_cm_embed(self, q, res, problems):
        values = [v["value"] for v in res["values"]]
        self._embedding_identities(q, values, problems)
        if res["valuations"] != [vp(v, q["p"]) for v in values]:
            problems.append("reported valuations are wrong")

    def _check_cm_pi(self, q, res, problems):
        c = list(res["pi"]) + [0, 0]
        if vp(c[0] ** 2 + q["d"] * c[1] ** 2, q["p"]) != 1:
            problems.append("pi does not have norm of valuation 1")
        want = [1 if i == q["fp_index"] else 0 for i in range(2)]
        if res["valuations"] != want:
            problems.append(f"pi valuations {res['valuations']} != {want}")

    def _check_tower_build(self, q, res, problems):
        p = q["p"]
        if [lv["level"] for lv in res["levels"]] != list(range(1, q["level"] + 1)):
            problems.append("wrong levels")
        for lv in res["levels"]:
            k = lv["level"]
            _check_eisenstein(lv["coeffs"], p, p ** (k - 1) * (p - 1),
                              problems, f"level {k}")

    def _check_tower_disc(self, q, res, problems):
        p = q["p"]
        if res != {"disc": p * (p - 1), "conductor_floor": p}:
            problems.append(f"disc/floor {res} != {p * (p - 1)}/{p}")

    def _check_tower_conductor(self, q, res, problems):
        p = q["p"]
        if (res["deltas"] != {str(a): 2 for a in range(1, p)}
                or res["break"] != 1 or res["disc_exponent"] != 2 * (p - 1)
                or res["conductor_exponent"] != 2 or res["e"] != q["e"]):
            problems.append("conductor report is not (jumps 2, conductor 2)")

    def _check_divide(self, q, res, problems):
        p, e, level = q["p"], q["e"], q["level"]
        mod = p ** q["N"]
        ramified = level >= e
        if res["e"] != e or res["ramified_at"] != (e if ramified else None):
            problems.append("division did not ramify at the depth invariant")
        if len(res["roots"]) != min(level, e - 1):
            problems.append("wrong number of split division roots")
        if ramified and res.get("certificate", {}).get("segments") != [[f"1/{p}", p]]:
            problems.append("ramified step is not certified Eisenstein")
        sec = q["seed_section"]
        if "coeffs" in sec:
            d = [int(x) for x in sec["coeffs"].split()]
        elif sec["kind"] == "standard":
            d = [0, p] + [0] * (p - 2) + [1]
        else:
            d = [0] + [math.comb(p, k) for k in range(1, p + 1)]
        prev = q["t0"]
        for r in res["roots"]:
            if _poly_eval(d, r["value"], mod) != prev % mod:
                problems.append("division root does not map to its predecessor")
            prev = r["value"]

    def _check_wedge(self, q, res, problems):
        p = q["p"]
        jets = [list(j) for j in res["initial"]]
        n = len(jets)
        mat = [[int(i == j) for j in range(n)] for i in range(n)]
        for st in res["steps"]:
            k, i = st["position"], st["prime"]
            (a, b), (c, d) = st["matrix"]
            if a * d - b * c != 1:
                problems.append("step matrix is not unimodular")
            v, w = jets[k], jets[k + 1]
            jets[k] = [(a * x + b * y) % p for x, y in zip(v, w)]
            jets[k + 1] = [(c * x + d * y) % p for x, y in zip(v, w)]
            if jets[k][i] != 0:
                problems.append(f"step did not clear prime {i}")
            rk, rk1 = mat[k], mat[k + 1]
            mat[k] = [a * x + b * y for x, y in zip(rk, rk1)]
            mat[k + 1] = [c * x + d * y for x, y in zip(rk, rk1)]
        granted = [o for o in res["oracle"] if o["granted"]]
        for o in granted:
            jets[o["position"]][o["first"]] = 0
        if jets != res["final"]:
            problems.append("replaying the steps does not give the final jets")
        if _int_det(mat) not in (1, -1):
            problems.append("cumulative matrix is not unimodular")
        if res["trivial"] != (q["oracle"] == "axiom") or \
                res["blocked"] != (q["oracle"] == "deny" and n > 1):
            problems.append("outcome does not match the oracle mode")

    _check_wedge_reduce = _check_wedge
    _check_wedge_extend = _check_wedge

    def _check_galois_orders(self, q, res, problems):
        p, m, n = q["p"], q["m"], q["n"]
        want = {"index": p ** n, "cyclic": True,
                "order_full": p ** m * p ** (m - 1) * (p - 1),
                "order_fix_torsion": p ** (2 * m - n),
                "order_fix_division": p ** (2 * m - 2 * n)}
        if any(res.get(k) != v for k, v in want.items()):
            problems.append(f"galois orders {res} do not match the counts")

    def _check_elliptic_fg(self, q, res, problems):
        _check_law(self._law(res["law"]), problems)
        if res["discriminant"] != -64 * q["a"] ** 3:
            problems.append("wrong discriminant")

    def _check_elliptic_match(self, q, res, problems):
        ap, alpha = _frobenius(q["a"], q["p"])
        if res["a_p"] != ap:
            problems.append(f"a_p {res['a_p']} != point count {ap}")
        if tuple(res["alpha_P"]) != alpha:
            problems.append(f"Frobenius {res['alpha_P']} != {alpha}")
        if sum(c["passes"] for c in res["candidates"]) != 1:
            problems.append("not exactly one passing candidate")
        if res["iso_jacobian"]["value"] != 1:
            problems.append("isomorphism is not strict")


def _report_text(report):
    """The report as the CLI prints it."""
    return json.dumps(report, indent=2, sort_keys=True)


def _int_det(m):
    """Integer determinant by fraction-free elimination (Bareiss)."""
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


WORKLOADS = {w.name: w for w in (LtDense(), Tower(), CliMix())}
