"""The failure contract of ``cli.main``, checked on generated commands.

Every run ends in a documented exit code: 0, 2 (input error), 3 (an algebra
that does not close), 4 (I/O failure) or 5 (out of memory).  A failure writes
no report, except the two documented ones: the exit-3 report of a closure
that does not close and the exit-2 report of ``separate`` on a Hamiltonian
with mixed terms.  stderr on a failure without a report is one error line,
or argparse's usage text.  A success writes its report and nothing on stderr.

Each command family draws its cases, valid and broken, from a generator
seeded by the family's name, so every run checks the same cases.  Caps stay
small (``max_basis`` <= 12, ``max_degree`` <= 6, grids <= 5000 points), except
in the overflow cases: their exponents reach the packed kernel's 64-bit
fields only under a degree budget past 2^64, and their generators are single
monomials under the Poisson bracket, so they stay cheap.
"""

import json
import random
import re

import pytest

from phasealg.cli import main

CASES_PER_FAMILY = 60
EXIT_CODES = {0, 2, 3, 4, 5}
ERROR_LINE = re.compile(r"(i/o )?error: [^\n]*\n")
USAGE_ERROR = re.compile(r"usage: phasealg.*\nphasealg[^\n]*: error: [^\n]*\n", re.DOTALL)

FINITE = ["1", "2.5", "0.5", "3"]
FLOATS = ["0", "-1", "-0.0", "1e-320", "1e-160", "1e154", "1e308", "nan", "inf", "abc", ""]
BROKEN = ["+", "(", ")", "^", "**", "$", "/", "/0", "/q1", "^-1", "K", "q9", "\n",
          f"^{2 ** 63}", f"^{10 ** 20}"]


def expression(rng, dof: int) -> str:
    """A polynomial over q1..q(dof), p1..p(dof) and the parameter M: one to
    three terms of degree at most 4, mostly quadratic."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [rng.choice("qp") + str(rng.randint(1, dof)) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.2:
            factors[0] += "^2"
        coeff = rng.choice(["", "", "2*", "M*", "1/2*", "-"])
        terms.append(coeff + "*".join(factors))
    return " + ".join(terms).replace("+ -", "- ")


def broken(rng, text: str) -> str:
    """``text`` with a stray token, unknown name, division or oversized
    exponent put in at a random place."""
    at = rng.randint(0, len(text))
    return text[:at] + rng.choice(BROKEN) + text[at:]


def mutate(rng, argv: list[str], options: dict[str, list[str]]) -> None:
    """Give one option of ``options`` a bad value, or drop a value, in half
    of the cases."""
    if rng.random() < 0.5:
        name = rng.choice(sorted(options))
        argv.append(f"--{name}={rng.choice(options[name])}")
    elif rng.random() < 0.1 and len(argv) > 2:
        del argv[-1]


def problem(rng) -> dict:
    """A problem file's contents: well formed, or with one field broken, or
    now and then an overflow case."""
    if rng.random() < 0.08:
        exps = [2 ** 62, 2 ** 63, 2 ** 64, 10 ** 20]
        return {"dof": 1, "generators": {"A": f"q1^{rng.choice(exps)}",
                                         "B": f"p1^{rng.choice(exps)}"},
                "options": {"max_degree": 2 ** 66, "max_basis": rng.randint(3, 6)}}
    dof = rng.randint(1, 3)
    raw = {
        "dof": dof,
        "params": {"M": rng.choice(["2", "1/2", "3"])},
        "generators": {f"g{i}": expression(rng, dof) for i in range(rng.randint(1, 3))},
        "options": {
            "max_basis": rng.randint(1, 12),
            "max_degree": rng.randint(2, 6),
            "bracket": rng.choice(["poisson", "poisson", "moyal"]),
            "hbar": rng.choice(["1", "1/2", "0"]),
            "center_degree": rng.randint(0, 2),
        },
    }
    if rng.random() < 0.5:
        field = rng.choice(["dof", "params", "generators", "expression", "options", "option"])
        if field == "expression":
            name = rng.choice(sorted(raw["generators"]))
            raw["generators"][name] = broken(rng, raw["generators"][name])
        elif field == "option":
            raw["options"][rng.choice(sorted(raw["options"]) + ["nonsense"])] = rng.choice(
                [0, -1, "x", True, None, 1.5, [1], "commutator"])
        else:
            raw[field] = rng.choice([0, -1, "2", "x", True, None, 1.5, [1], {}, {"M": "1/0"},
                                     {"g": 3}, {"M": True}, {"f_of_M": 3}])
    return raw


def problem_argv(rng, tmp_path, command: str) -> list[str]:
    path = tmp_path / "problem.json"
    text = json.dumps(problem(rng))
    roll = rng.random()
    if roll < 0.04:
        text = text[: len(text) // 2]
    elif roll < 0.08:
        path = tmp_path / "missing.json"
    if path.name != "missing.json":
        path.write_text(text)
    argv = [command, str(path)]
    if rng.random() < 0.2:
        argv += ["--set", rng.choice(["M=3", "M=1/2", "M", "=2", "M=x"])]
    if command == "invariants":
        argv += rng.sample(["--casimir", "--center"], rng.randint(0, 2))
        if rng.random() < 0.4:
            argv += ["--degree", rng.choice(["0", "1", "2", "3", "-1", "x"])]
    return argv


def table(rng, tmp_path) -> str:
    path = tmp_path / "well.dat"
    kind = rng.choice(["good", "good", "good", "empty", "one-column", "falling", "nan",
                       "missing"])
    if kind == "missing":
        return str(tmp_path / "missing.dat")
    rows = {
        "good": [f"{x / 10} {x * x / 200}" for x in range(-50, 51)],
        "empty": ["# nothing"],
        "one-column": [str(x) for x in range(10)],
        "falling": [f"{-x} {x}" for x in range(10)],
        "nan": ["0 0", "nan 1", "2 2"],
    }[kind]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def spectrum_argv(rng, tmp_path, kind: str) -> list[str]:
    argv = ["spectrum", kind]
    if kind == "box":
        argv += ["--mass", rng.choice(FINITE), "--side", rng.choice(FINITE),
                 "--nmax", rng.choice(["1", "3", "8"])]
        mutate(rng, argv, {"mass": FLOATS, "side": FLOATS, "nmax": ["47", "0", "-2", "x"]})
    elif kind == "internal":
        potential = rng.choice(["harmonic", "box", "coulomb", "tabulated"])
        argv += ["--potential", potential, "--grid", rng.choice(["16", "200", "2000", "5000"]),
                 "--count", rng.choice(["1", "5", "14"]), "--mass", rng.choice(FINITE)]
        argv += {"harmonic": ["--omega", rng.choice(FINITE), "--domain=-10,10"],
                 "box": ["--side", rng.choice(FINITE)],
                 "coulomb": ["--kappa", rng.choice(FINITE), "--rmin", "0.05"],
                 "tabulated": ["--table", table(rng, tmp_path)]}[potential]
        mutate(rng, argv, {
            "potential": ["morse"], "omega": FLOATS, "side": FLOATS, "kappa": FLOATS,
            "rmin": FLOATS, "mass": FLOATS, "grid": ["15", "0", "1000001", "x"],
            "count": ["0", "-1", "6000"],
            "domain": ["5,-5", "0,0", "-1e308,1e308", "1", "nan,1", "-1e-300,1e-300"]})
    else:
        levels = ",".join(rng.choice(FINITE) for _ in range(rng.randint(1, 5)))
        if rng.random() < 0.5:
            argv += ["--mode", "right", "--internal", levels, "--f", rng.choice(FINITE)]
        else:
            argv += ["--mode", "spurious", "--internal", levels, "--mass", rng.choice(FINITE),
                     "--side", rng.choice(FINITE), "--nmax", rng.choice(["1", "3", "6"])]
        mutate(rng, argv, {
            "mode": ["sideways"], "internal": ["", "1e308,1e308", "nan", "1,x"], "f": FLOATS,
            "mass": FLOATS, "side": FLOATS, "nmax": ["47", "0", "-2"],
            "count": ["1", "4", "0", "-3"]})
    return argv


def separate_argv(rng, tmp_path) -> list[str]:
    masses = rng.choice(["1,2", "1,1", "1,2,3", "2,3,5,7", "1/2,3"])
    dim = rng.randint(1, 3)
    argv = ["separate", "--masses", masses, "--dim", str(dim)]
    if rng.random() < 0.5:
        expr = expression(rng, len(masses.split(",")) * dim).replace("M*", "3*")
        argv += ["--expr", broken(rng, expr) if rng.random() < 0.3 else expr]
    mutate(rng, argv, {"masses": ["0,1", "-1,1", "1/0,2", "a,b", "1", "", ",,"],
                       "dim": ["0", "x", "-1"]})
    return argv


FAMILIES = {
    "close": lambda rng, tmp_path: problem_argv(rng, tmp_path, "close"),
    "invariants": lambda rng, tmp_path: problem_argv(rng, tmp_path, "invariants"),
    "separate": separate_argv,
    "spectrum-box": lambda rng, tmp_path: spectrum_argv(rng, tmp_path, "box"),
    "spectrum-internal": lambda rng, tmp_path: spectrum_argv(rng, tmp_path, "internal"),
    "spectrum-composite": lambda rng, tmp_path: spectrum_argv(rng, tmp_path, "composite"),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_failure_keeps_the_contract(family, tmp_path, capsys):
    rng = random.Random(family)
    report = tmp_path / "report.json"
    seen = set()
    for _ in range(CASES_PER_FAMILY):
        # now and then the report goes to a directory, an I/O failure (exit 4)
        target = tmp_path if rng.random() < 0.03 else report
        argv = [*FAMILIES[family](rng, tmp_path), "-o", str(target)]
        report.unlink(missing_ok=True)
        try:
            code = main(argv)
        except Exception as exc:   # the contract admits no escaped exception
            pytest.fail(f"{argv}: {exc!r} escaped main")
        out, err = capsys.readouterr()
        written = json.loads(report.read_text()) if report.exists() else None
        seen.add(code)
        assert code in EXIT_CODES, (argv, code, err)
        assert out == "", argv
        if code == 0:
            assert written is not None and written["exit_code"] == 0, argv
            assert err == "", (argv, err)
            continue
        documented = code == 3 or (code == 2 and argv[0] == "separate"
                                   and written is not None and written["status"] == "mixed-terms")
        if documented:
            assert written is not None and written["exit_code"] == code, (argv, code)
            assert err == "", (argv, err)
        else:
            assert written is None, (argv, code, err)
            assert ERROR_LINE.fullmatch(err) or USAGE_ERROR.fullmatch(err), (argv, err)
    assert 0 in seen and 2 in seen, (family, seen)
