"""The three benchmark workloads: instance pools, job streams and checks.

Each workload is a fixed list of job classes.  Every class has a pool of
``POOL`` instances, generated from the class name and the instance number
alone, so the canonical output of every instance could be digested once, at
the seed commit, into ``golden/<workload>.json``.  A run's ``--seed`` draws
one instance per class for each round and shuffles the round; the program
only ever sees the generated inputs.  Every class appears once per round, so
runs with different seeds measure the same mix of work.

A job is one bracket (``brackets``), one closure plus the checks a user runs
on it (``algebra``), or one in-process ``phasealg.cli.main`` call
(``pipeline``).  Program functions are looked up on their module at call
time so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracle
from phasealg import brackets, cli, closure, invariants
from phasealg.context import PhaseContext
from phasealg.errors import NonClosingError
from phasealg.poly import PhasePoly, format_poly

POOL = 8


@dataclass
class Job:
    id: str                                  # "<workload>/<class>/<instance>"
    run: Callable[[], Any]                   # the timed call
    canon: Callable[[Any], bytes]            # canonical output, digested
    check: Callable[[Any, random.Random], list[str]]  # independent checks
    reset: Callable[[], None] | None = None  # untimed, before each run


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _rational(rng: random.Random, top: int = 9, den: int = 7) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, den))


def _positive(rng: random.Random, top: int = 5, den: int = 3) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, den))


def random_terms(rng: random.Random, nvars: int, degree: int, nterms: int) -> dict:
    """``nterms`` distinct monomials of total degree <= ``degree``, one of them
    of degree exactly ``degree``, with nonzero rational coefficients."""
    terms: dict[tuple[int, ...], Fraction] = {}
    while len(terms) < nterms:
        d = degree if not terms else rng.randint(0, degree)
        exps = [0] * nvars
        for _ in range(d):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = _rational(rng)
    return terms


def quadratic_terms(rng: random.Random, nvars: int, nterms: int) -> dict:
    """A homogeneous quadratic: an element of sp(nvars) as a Hamiltonian."""
    terms: dict[tuple[int, ...], Fraction] = {}
    while len(terms) < nterms:
        exps = [0] * nvars
        exps[rng.randrange(nvars)] += 1
        exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = _rational(rng, 4, 3)
    return terms


def sp_generators(rng: random.Random, dof: int) -> list[dict]:
    """Two quadratics that generate all of sp(2 dof).

    ``h = sum l_i q_i p_i`` with the l_i chosen so that every root value
    +-l_i +- l_j and 2 l_i is distinct and nonzero (h is regular), and ``x``
    with a nonzero coefficient on every quadratic monomial.  ad_h separates
    x into its root components, so the closure holds every root vector, and
    root vectors generate sp(2 dof).
    """
    while True:
        lam = [Fraction(rng.randint(1, 40), rng.randint(1, 4)) for _ in range(dof)]
        roots = [s * lam[i] + t * lam[j] for i in range(dof) for j in range(i, dof)
                 for s in (1, -1) for t in (1, -1) if i != j or s == t]
        if 0 not in roots and len(set(roots)) == len(roots):
            break
    nvars = 2 * dof
    h = {}
    for i in range(dof):
        exps = [0] * nvars
        exps[i] = exps[dof + i] = 1
        h[tuple(exps)] = lam[i]
    x = {}
    for i in range(nvars):
        for j in range(i, nvars):
            exps = [0] * nvars
            exps[i] += 1
            exps[j] += 1
            x[tuple(exps)] = _rational(rng, 4, 3)
    return [h, x]


def poly_text(terms: dict, ctx: PhaseContext) -> str:
    """DSL text of a term dict, for problem files."""
    parts = []
    for exps, c in sorted(terms.items()):
        factors = [f"{ctx.var_name(i)}^{e}" for i, e in enumerate(exps) if e]
        parts.append("*".join([f"({c})"] + factors))
    return " + ".join(parts) if parts else "0"


class Workload:
    name = ""
    classes: tuple[str, ...] = ()   # the jobs of one round; a class may repeat
    warmup_classes: tuple[str, ...] = ()
    trace_rounds = 1

    def prepare(self) -> None:
        """Write any input files the jobs read (untimed, deterministic)."""

    def instance(self, cls: str, k: int) -> Job:
        raise NotImplementedError

    def rounds(self, seed: int):
        """Endless stream of rounds, each holding every entry of ``classes``.

        Each class walks its pool in a seeded order, so a run draws the pool
        evenly; the order of jobs within a round is shuffled too.
        """
        rng = random.Random(seed)
        order = {c: rng.sample(range(POOL), POOL) for c in dict.fromkeys(self.classes)}
        drawn = dict.fromkeys(order, 0)
        while True:
            picks = []
            for cls in self.classes:
                picks.append((cls, order[cls][drawn[cls] % POOL]))
                drawn[cls] += 1
            rng.shuffle(picks)
            yield [self.instance(cls, k) for cls, k in picks]

    def all_instances(self):
        for cls in dict.fromkeys(self.classes):
            for k in range(POOL):
                yield self.instance(cls, k)


# -- brackets -------------------------------------------------------------------

BRACKET_SIZES = {"S": 12, "M": 32, "L": 96}


class Brackets(Workload):
    """One Poisson or Moyal bracket of two dense rational polynomials."""

    name = "brackets"
    classes = tuple(
        f"D{dof}-deg{deg}-{size}-{kind}"
        for dof in (3, 4, 5, 6)
        for deg in (4, 5, 6)
        for size in BRACKET_SIZES
        for kind in ("poisson", "moyal")
    )
    warmup_classes = tuple(c for c in classes if "-S-" in c)
    trace_rounds = 1

    def instance(self, cls: str, k: int) -> Job:
        dof_s, deg_s, size, kind = cls.split("-")
        dof, deg, nterms = int(dof_s[1:]), int(deg_s[3:]), BRACKET_SIZES[size]
        rng = _rng(self.name, cls, k)
        a_terms = random_terms(rng, 2 * dof, deg, nterms)
        b_terms = random_terms(rng, 2 * dof, deg, nterms)
        hbar = _positive(rng, 6, 6)
        ctx = PhaseContext(dof, hbar=hbar)
        a, b = PhasePoly(ctx, a_terms), PhasePoly(ctx, b_terms)
        fname = f"{kind}_bracket"

        def run():
            return getattr(brackets, fname)(a, b)

        def check(out, crng):
            point = oracle.random_point(crng, 2 * dof)
            got = oracle.evaluate(out.term_items(), point)
            want = oracle.bracket_at_point(a_terms, b_terms, dof, kind, hbar, point)
            return [] if got == want else ["bracket differs from the oracle at a random point"]

        return Job(f"{self.name}/{cls}/{k}", run, lambda out: format_poly(out).encode(), check)


# -- algebra --------------------------------------------------------------------

# Checks are sized so that no single job sets the run: verify() on sp(6)
# takes about a second and check_jacobi_tensor() on it about ten.
VERIFY_MAX_BASIS = 16
SMALL_BASIS = 8   # bases up to this size also get check_jacobi_tensor and find_casimir


class Algebra(Workload):
    """A closure followed by the checks users run on it."""

    name = "algebra"
    classes = (("sp4-sub",) * 4 + ("sp6-sub",) * 4 + ("quartic",) * 2 + ("sp4-full",) * 2
               + ("nsphere",) * 2 + ("cm",) * 2 + ("sp6-full",))
    warmup_classes = tuple(dict.fromkeys(classes))
    trace_rounds = 3

    def instance(self, cls: str, k: int) -> Job:
        rng = _rng(self.name, cls, k)
        if cls in ("nsphere", "cm", "quartic"):
            problem = cli.load_problem(cls)
            if cls == "nsphere":
                problem.apply_overrides([f"m={_positive(rng)}", f"r0={_positive(rng)}"])
            elif cls == "cm":
                problem.apply_overrides([f"M={_positive(rng)}", f"X0={_rational(rng, 3, 4)}"])
            else:
                problem.apply_overrides([f"lambda={_positive(rng)}"])
                problem.max_basis = rng.randint(6, 16)
            ctx = problem.context()
            seeds = problem.seeds(ctx)
            kind, max_basis, max_degree = problem.bracket, problem.max_basis, problem.max_degree
            dof = problem.dof
        else:
            dof = 2 if cls.startswith("sp4") else 3
            ctx = PhaseContext(dof)
            if cls.endswith("full"):
                polys = sp_generators(rng, dof)
            else:
                polys = [quadratic_terms(rng, 2 * dof, rng.randint(1, 2))
                         for _ in range(rng.randint(1, 3))]
            seeds = [closure.AlgebraElement(f"S{i + 1}", PhasePoly(ctx, terms))
                     for i, terms in enumerate(polys)]
            kind, max_basis, max_degree = "poisson", 32, 16
        expect_closed = cls != "quartic"
        top_degree = {"sp4-sub": 4, "sp4-full": 2, "sp6-sub": 3, "sp6-full": 2}.get(cls, 5)
        center_degree = rng.randint(2, top_degree)

        def run():
            try:
                cl = closure.close_algebra(
                    seeds, bracket_kind=kind, max_basis=max_basis, max_degree=max_degree)
            except NonClosingError as exc:
                if expect_closed:
                    raise
                return {"non_closing": exc}
            out = {"closure": cl}
            if len(cl.basis) <= VERIFY_MAX_BASIS:
                out["verify"] = cl.verify()
            if len(cl.basis) <= SMALL_BASIS:
                out["jacobi"] = cl.check_jacobi_tensor()
                out["casimir"] = invariants.find_casimir(cl)
            out["center"] = invariants.find_center(cl, max_total_degree=center_degree)
            return out

        def check(out, crng):
            if "non_closing" in out:
                exc = out["non_closing"]
                return [] if exc.basis_size == max_basis else [f"unexpected stop: {exc}"]
            if not expect_closed:
                return ["closed although the problem is known not to close"]
            cl = out["closure"]
            n = len(cl.basis)
            problems = []
            if out.get("verify") is False:
                problems.append("verify() rejected the closure")
            if out.get("jacobi") is False:
                problems.append("check_jacobi_tensor() rejected the closure")
            if not oracle.jacobi_holds(cl.structure, n, crng):
                problems.append("structure constants violate Jacobi")
            if cls.endswith("full") and n != dof * (2 * dof + 1):
                problems.append(f"sp({2 * dof}) closure has dimension {n}")
            return problems

        return Job(f"{self.name}/{cls}/{k}", run, _algebra_canon, check)


def _algebra_canon(out) -> bytes:
    if "non_closing" in out:
        return str(out["non_closing"]).encode()
    cl = out["closure"]
    lines = [f"bracket {cl.bracket_kind}"]
    lines += [f"basis {e.name} {e.is_identity} {format_poly(e.poly)}" for e in cl.basis]
    lines += [f"c {i} {j} {k} {c}" for i, j, k, c in closure.structure_constants(cl)]
    lines.append(f"verify {out.get('verify')}")
    if "jacobi" in out:
        lines.append(f"jacobi {out['jacobi']}")
        for sol in out["casimir"]:
            lines.append(
                f"casimir {sorted(sol.quadratic.items())} {sorted(sol.linear.items())} "
                f"{sol.constant} {sol.trivial} {format_poly(sol.realization)}")
    center = out["center"]
    lines.append(f"center degree {center.degree}")
    lines += [f"center {format_poly(p)}" for p in center.solutions]
    return "\n".join(lines).encode()


# -- pipeline -------------------------------------------------------------------


class Pipeline(Workload):
    """One in-process CLI command writing its report with ``-o``."""

    name = "pipeline"
    classes = (
        "close-bundled", "close-quartic", "close-generated",
        "invariants-bundled", "invariants-generated", "separate",
        "spectrum-box", "internal-harmonic", "internal-box", "internal-coulomb",
        "internal-tabulated", "composite-spurious", "composite-right",
    )
    warmup_classes = classes
    trace_rounds = 20
    # Relative paths: they are echoed into reports, whose bytes are digested.
    scratch = ".bench_out/pipeline"
    report = f"{scratch}/report.json"

    def _problem_path(self, cls: str, k: int) -> str:
        return f"{self.scratch}/problems/{cls}-{k}.json"

    def _table_path(self, k: int) -> str:
        return f"{self.scratch}/tables/well-{k}.dat"

    def prepare(self) -> None:
        root = Path(self.scratch)
        (root / "problems").mkdir(parents=True, exist_ok=True)
        (root / "tables").mkdir(parents=True, exist_ok=True)
        for k in range(POOL):
            for cls in ("close-generated", "invariants-generated"):
                Path(self._problem_path(cls, k)).write_text(
                    json.dumps(self._generated_problem(cls, k), indent=2) + "\n")
            Path(self._table_path(k)).write_text(self._table(k))

    def _generated_problem(self, cls: str, k: int) -> dict:
        rng = _rng(self.name, cls, "problem", k)
        dof = rng.randint(1, 3) if cls == "close-generated" else rng.randint(1, 2)
        ctx = PhaseContext(dof)
        gens = {
            f"G{i + 1}": poly_text(quadratic_terms(rng, 2 * dof, rng.randint(1, 3)), ctx)
            for i in range(rng.randint(1, 2))
        }
        return {"dof": dof, "params": {}, "generators": gens,
                "options": {"bracket": rng.choice(["poisson", "moyal"]), "center_degree": 2}}

    def _table(self, k: int) -> str:
        rng = _rng(self.name, "table", k)
        a, b = rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.01)
        npts = rng.randint(33, 65)
        lines = ["# x V(x)"]
        for i in range(npts):
            x = -8.0 + 16.0 * i / (npts - 1)
            lines.append(f"{x!r} {a * x * x + b * x ** 4!r}")
        return "\n".join(lines) + "\n"

    def instance(self, cls: str, k: int) -> Job:
        rng = _rng(self.name, cls, k)
        argv = self._argv(cls, k, rng)
        expect = 3 if cls == "close-quartic" else 0   # quartic does not close
        harmonic = None
        if cls == "internal-harmonic":
            harmonic = (float(argv[argv.index("--omega") + 1]),
                        float(argv[argv.index("--mass") + 1]),
                        int(argv[argv.index("--grid") + 1]))
        argv = argv + ["-o", self.report]
        report_path = Path(self.report)

        def run():
            return cli.main(argv)

        def canon(code):
            return report_path.read_bytes() if report_path.exists() else b""

        def check(code, crng):
            if code != expect:
                return [f"exit code {code}, expected {expect}"]
            report = json.loads(report_path.read_text())
            problems = []
            if report.get("exit_code") != expect:
                problems.append("report exit_code does not match the exit status")
            if cls == "separate" and not (
                report["canonical"]["passed"] and report["checks"]["reassembly_ok"]
            ):
                problems.append("canonical map or reassembly check failed")
            if harmonic is not None:
                omega, mass, grid = harmonic
                energies = [lv["energy"] for lv in report["levels"]]
                if not oracle.harmonic_levels_ok(energies, omega, mass, (-10.0, 10.0), grid):
                    problems.append("harmonic levels off (n + 1/2) omega by more than O(h^2)")
            return problems

        return Job(f"{self.name}/{cls}/{k}", run, canon, check,
                   reset=lambda: report_path.unlink(missing_ok=True))

    def _argv(self, cls: str, k: int, rng: random.Random) -> list[str]:
        grid = str(int(round(2000 * 25 ** rng.random())))   # log-uniform 2k..50k
        count = str(rng.randint(3, 8))
        if cls == "close-bundled":
            name = rng.choice(["nsphere", "cm"])
            sets = (["m", "r0"] if name == "nsphere" else ["M", "X0"])
            return ["close", name] + [a for s in sets for a in ("--set", f"{s}={_positive(rng)}")]
        if cls == "close-quartic":
            return ["close", "quartic", "--set", f"lambda={_positive(rng)}"]
        if cls == "close-generated":
            return ["close", self._problem_path(cls, k)]
        if cls == "invariants-bundled":
            name = rng.choice(["nsphere", "cm"])
            mode = rng.choice([[], ["--casimir"], ["--center", "--degree", str(rng.randint(2, 4))]])
            return ["invariants", name] + mode
        if cls == "invariants-generated":
            return ["invariants", self._problem_path(cls, k), "--center", "--degree", "2"]
        if cls == "separate":
            return self._separate_argv(rng)
        if cls == "spectrum-box":
            return ["spectrum", "box", "--mass", str(rng.uniform(0.5, 3)),
                    "--side", str(rng.uniform(0.5, 2)), "--nmax", str(rng.randint(2, 6))]
        if cls == "internal-harmonic":
            return ["spectrum", "internal", "--potential", "harmonic",
                    "--omega", str(rng.uniform(0.8, 2.0)), "--mass", str(rng.choice([1.0, 2.0])),
                    "--grid", grid, "--count", count]
        if cls == "internal-box":
            return ["spectrum", "internal", "--potential", "box",
                    "--side", str(rng.uniform(0.5, 3)), "--grid", grid, "--count", count]
        if cls == "internal-coulomb":
            return ["spectrum", "internal", "--potential", "coulomb",
                    "--kappa", str(rng.uniform(0.5, 2)), "--rmin", str(rng.uniform(0.05, 0.3)),
                    "--domain=-20,20", "--grid", grid, "--count", count]
        if cls == "internal-tabulated":
            return ["spectrum", "internal", "--potential", "tabulated",
                    "--table", self._table_path(k), "--grid", grid, "--count", count]
        internal = ",".join(repr(rng.uniform(0.1, 3.0)) for _ in range(rng.randint(2, 6)))
        if cls == "composite-spurious":
            return ["spectrum", "composite", "--mode", "spurious", "--internal", internal,
                    "--mass", str(rng.uniform(0.5, 3)), "--side", str(rng.uniform(0.5, 2)),
                    "--nmax", str(rng.randint(2, 5))]
        if cls == "composite-right":
            return ["spectrum", "composite", "--mode", "right", "--internal", internal,
                    "--f", str(rng.uniform(0.5, 5))]
        raise ValueError(f"unknown pipeline class {cls}")

    @staticmethod
    def _separate_argv(rng: random.Random) -> list[str]:
        """2-5 bodies in 1-3 dimensions, kinetic energy plus interactions that
        depend only on coordinate differences (translation invariant)."""
        nbody, dim = rng.randint(2, 5), rng.randint(1, 3)
        masses = [_positive(rng) for _ in range(nbody)]
        parts = []
        for b, m in enumerate(masses):
            for c in range(dim):
                parts.append(f"{m.denominator}*p{b * dim + c + 1}^2/{2 * m.numerator}")
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(nbody), 2)
            c = rng.randrange(dim)
            diff = f"(q{i * dim + c + 1} - q{j * dim + c + 1})"
            parts.append(f"{_positive(rng)}*{diff}^{rng.randint(2, 4)}")
        return ["separate", "--masses", ",".join(str(m) for m in masses),
                "--dim", str(dim), "--expr", " + ".join(parts)]


WORKLOADS: dict[str, type[Workload]] = {"brackets": Brackets, "algebra": Algebra,
                                        "pipeline": Pipeline}
