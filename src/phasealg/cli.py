"""Batch front end: problem files in, machine-readable reports out.

Problem files are JSON: canonical-pair count, exact rational parameters,
named generator expressions in the DSL, and engine options.  Reports are
JSON too, with every polynomial serialized as canonical DSL text and every
rational as a string, so identical inputs always produce identical bytes.

Each ``cmd_*`` turns parsed arguments into a report dict; ``main`` alone
writes it, to stdout or to ``-o``, and returns its ``exit_code``.  A failure
raised as an exception writes no report.  ``main`` may be called many times
in one process; it builds its parser once, at first use, not at import.

Only ``spectrum internal``, the finite-difference solver, imports numpy and
scipy, when it runs; every other command, ``spectrum box`` and ``spectrum
composite`` included, starts without them.

Exit codes: 0 success, 2 input error (an exponent past 64 bits included),
3 algebra does not close (the report is still written, with diagnostics),
4 I/O failure, 5 out of memory.

The environment variable PHASEALG_MAX_MEMORY_MB, when set, caps the address
space of the process before any exact arithmetic starts; a runaway closure
then ends with exit 5 and "error: out of memory" on stderr, naming the
cap, instead of taking the machine down.  No report is written.  The cap is
set after the arguments are parsed, and for ``spectrum internal`` after numpy
and scipy are imported, so what they map counts against it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .closure import (
    SIGN_CONVENTION_NOTE,
    AlgebraElement,
    close_algebra,
    convention_notes,
    structure_constants,
)
from .context import PhaseContext
from .errors import NonClosingError, PhaseAlgError, SeparationFailure
from .invariants import find_casimir, find_center, verify_invariant
from .parser import parse_expression
from .poly import format_poly
from .rational import rat
from .separation import (
    jacobi_transform,
    kinetic_energy,
    separate_hamiltonian,
    two_body_transform,
    verify_canonical,
)
from . import spectra

_DEFAULT_OPTIONS = {
    "bracket": "poisson",
    "hbar": "1",
    "max_basis": 32,
    "max_degree": 16,
    "center_degree": 2,
    "f_of_M": "M",
}


def _scalar(value, field: str, convert, kind: str):
    """``convert(value)`` for a JSON string or integer (not a boolean)."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return convert(value)
        except ValueError:
            pass
    raise ValueError(f"problem field {field!r} must be {kind}, got {json.dumps(value)}")


class Problem:
    """Validated problem file contents."""

    def __init__(self, raw: dict, origin: str):
        if not isinstance(raw, dict):
            raise ValueError("problem file must hold a JSON object")
        self.origin = origin
        self.dof = _scalar(raw.get("dof"), "dof", int, "a positive integer")
        if self.dof < 1:
            raise ValueError("problem field 'dof' must be a positive integer")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("problem field 'params' must be an object")
        self.params = {k: _scalar(v, f"params.{k}", rat, "a rational") for k, v in params.items()}
        gens = raw.get("generators")
        if not isinstance(gens, dict) or not gens:
            raise ValueError("problem field 'generators' must be a nonempty object")
        for name, expr in gens.items():
            if not isinstance(expr, str):
                raise ValueError(f"generator {name!r} must map to an expression string")
        self.generators = dict(gens)
        options = dict(_DEFAULT_OPTIONS)
        extra = raw.get("options", {})
        if not isinstance(extra, dict):
            raise ValueError("problem field 'options' must be an object")
        unknown = set(extra) - set(_DEFAULT_OPTIONS)
        if unknown:
            raise ValueError(f"unknown options: {sorted(unknown)}")
        options.update(extra)
        if options["bracket"] not in ("poisson", "moyal"):
            raise ValueError("options.bracket must be 'poisson' or 'moyal'")
        if not isinstance(options["f_of_M"], str):
            raise ValueError("problem field 'options.f_of_M' must be a string, "
                             f"got {json.dumps(options['f_of_M'])}")
        self.bracket = options["bracket"]
        self.hbar = _scalar(options["hbar"], "options.hbar", rat, "a rational")
        self.max_basis, self.max_degree, self.center_degree = (
            _scalar(options[k], f"options.{k}", int, "an integer")
            for k in ("max_basis", "max_degree", "center_degree"))
        for k in ("max_basis", "max_degree"):
            if getattr(self, k) < 1:
                raise ValueError(f"problem field 'options.{k}' must be a positive integer")
        if self.center_degree < 0:
            raise ValueError("problem field 'options.center_degree' must be a nonnegative integer")
        self.options = options
        self.overrides: list[str] = []

    def apply_overrides(self, pairs: list[str]) -> None:
        """Set each ``NAME=VALUE`` parameter, and record the pair for ``echo``."""
        for item in pairs:
            name, sep, value = item.partition("=")
            if not sep or not name:
                raise ValueError(f"--set expects NAME=VALUE, got {item!r}")
            self.params[name] = rat(value)
            self.overrides.append(item)

    def context(self) -> PhaseContext:
        return PhaseContext(
            self.dof, params=self.params, hbar=self.hbar, max_degree=self.max_degree
        )

    def seeds(self, ctx: PhaseContext) -> list[AlgebraElement]:
        return [
            AlgebraElement(name, parse_expression(expr, ctx))
            for name, expr in self.generators.items()
        ]

    def echo(self) -> dict:
        return {
            "source": self.origin,
            "dof": self.dof,
            "params": self.params,
            "generators": dict(self.generators),
            "options": {k: str(v) for k, v in self.options.items()},
            "overrides": list(self.overrides),
        }


def load_problem(spec_arg: str) -> Problem:
    """Read a problem file from disk or from the bundled fixtures.

    A plain name (optionally with a .problem or .json suffix) that does not
    exist as a path falls back to the packaged problems directory.
    """
    path = Path(spec_arg)
    if path.exists():
        text = path.read_text(encoding="utf-8")
    else:
        name = path.name
        for suffix in (".problem", ".json"):
            if name.endswith(suffix):
                name = name[: -len(suffix)]
        res = resources.files("phasealg") / "problems" / f"{name}.json"
        if not res.is_file():
            raise OSError(f"problem file not found: {spec_arg}")
        text = res.read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"problem file is not valid JSON: {exc}") from exc
    return Problem(raw, origin=spec_arg)


def _fraction_text(value):
    """``json.dumps`` hook: a ``Fraction`` is written as its string."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, allow_nan=False, default=_fraction_text) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _closure_payload(closure) -> dict:
    names = [e.name for e in closure.basis]
    return {
        "bracket": closure.bracket_kind,
        "size": len(closure.basis),
        "basis": [
            {
                "name": e.name,
                "expression": format_poly(e.poly),
                "identity": e.is_identity,
            }
            for e in closure.basis
        ],
        "structure_constants": [
            [names[i], names[j], names[k], c]
            for i, j, k, c in structure_constants(closure)
        ],
    }


def _closed(args, command: str):
    """The problem with ``--set`` applied, the report's first entries and the
    closure; or, for an algebra that does not close, a finished exit-3 report
    and ``None``."""
    problem = load_problem(args.problem)
    problem.apply_overrides(args.set or [])
    report = {"command": command, "problem": problem.echo()}
    try:
        closure = close_algebra(
            problem.seeds(problem.context()),
            bracket_kind=problem.bracket,
            max_basis=problem.max_basis,
            max_degree=problem.max_degree,
        )
    except NonClosingError as exc:
        report.update(
            status="non-closing",
            diagnostics=[str(exc), SIGN_CONVENTION_NOTE],
            exit_code=3,
        )
        return problem, report, None
    return problem, report, closure


def cmd_close(args) -> dict:
    _, report, closure = _closed(args, "close")
    if closure is not None:
        report.update(
            status="ok",
            closure=_closure_payload(closure),
            diagnostics=convention_notes(closure),
            exit_code=0,
        )
    return report


def cmd_invariants(args) -> dict:
    problem, report, closure = _closed(args, "invariants")
    if closure is None:
        return report
    report["closure"] = _closure_payload(closure)

    both = not (args.casimir or args.center)

    if args.casimir or both:
        entries = []
        for sol in find_casimir(closure):
            gnames = sol.generator_names
            entries.append(
                {
                    "quadratic": {
                        f"{gnames[i]}*{gnames[j]}": v
                        for (i, j), v in sorted(sol.quadratic.items())
                    },
                    "linear": {
                        gnames[i]: v for i, v in sorted(sol.linear.items())
                    },
                    "constant": sol.constant,
                    "realization": format_poly(sol.realization),
                    "trivial": sol.trivial,
                    "verified": verify_invariant(sol.realization, closure).passed,
                }
            )
        nontrivial = sum(not entry["trivial"] for entry in entries)
        report["casimir"] = {"solutions": entries, "nontrivial_count": nontrivial}

    if args.center or both:
        degree = args.degree if args.degree is not None else problem.center_degree
        center = find_center(closure, max_total_degree=degree)
        nonconstant = center.nonconstant()
        payload = {
            "degree": degree,
            "solutions": [format_poly(p) for p in center.solutions],
            "nonconstant_count": len(nonconstant),
        }
        if not nonconstant:
            payload["note"] = (
                "the solution space is spanned by the constant polynomial: "
                "only multiples of the identity commute with the whole "
                "algebra (Schur's lemma), so any invariant Hamiltonian at "
                "this degree is a constant shift"
            )
        report["center"] = payload

    report.update(diagnostics=convention_notes(closure), exit_code=0)
    return report


def _spectrum_report(rep, command: str) -> dict:
    report = {
        "command": command,
        "mode": rep.mode,
        "levels": [vars(lv) for lv in rep.levels],
        "metadata": rep.metadata,
        "exit_code": 0,
    }
    if rep.offset is not None:
        report["offset"] = rep.offset
    return report


def cmd_spectrum_box(args) -> dict:
    return _spectrum_report(spectra.box_spectrum(args.mass, args.side, args.nmax),
                            "spectrum box")


# What each potential of ``spectrum internal`` reads, with the defaults,
# besides --mass, --grid and --count.
_POTENTIAL_OPTIONS = {
    "harmonic": {"omega": 1.0, "domain": (-10.0, 10.0)},
    "box": {"side": 1.0},
    "coulomb": {"kappa": 1.0, "rmin": 0.05, "domain": (-10.0, 10.0)},
    "tabulated": {"table": None},
}


def _refuse_unread(args, names, where: str) -> None:
    """A ``ValueError`` naming each option of ``names`` given: ``where`` ignores it."""
    if given := [f"--{name}" for name in names if getattr(args, name) is not None]:
        raise ValueError(f"{where} does not read {', '.join(given)}")


def _potential_from_args(args):
    reads = _POTENTIAL_OPTIONS[args.potential]
    every = dict.fromkeys(name for options in _POTENTIAL_OPTIONS.values() for name in options)
    _refuse_unread(args, [name for name in every if name not in reads],
                   f"--potential {args.potential}")
    opt = {name: default if getattr(args, name) is None else getattr(args, name)
           for name, default in reads.items()}
    if args.potential == "harmonic":
        return spectra.harmonic_potential(opt["omega"], mass=args.mass, domain=opt["domain"],
                                          grid=args.grid)
    if args.potential == "box":
        return spectra.box_potential(opt["side"], mass=args.mass, grid=args.grid)
    if args.potential == "coulomb":
        return spectra.coulomb_potential(opt["kappa"], opt["rmin"], mass=args.mass,
                                         domain=opt["domain"], grid=args.grid)
    if not opt["table"]:
        raise ValueError("--potential tabulated needs --table PATH")
    return spectra.read_tabulated(opt["table"], mass=args.mass, grid=args.grid)


def cmd_spectrum_internal(args) -> dict:
    rep = spectra.internal_spectrum(_potential_from_args(args), args.count)
    return _spectrum_report(rep, "spectrum internal")


def cmd_spectrum_composite(args) -> dict:
    if args.mode == "right":
        _refuse_unread(args, ["count", "side", "nmax", "mass"], "--mode right")
        if args.f is None:
            raise ValueError("composite right mode needs --f")
        rep = spectra.composite_spectrum(args.internal, args.f, "composite-right")
    else:
        _refuse_unread(args, ["f"], "--mode spurious")
        if args.mass is None or args.side is None:
            raise ValueError("composite spurious mode needs --mass and --side")
        cm = spectra.box_spectrum(args.mass, args.side, 3 if args.nmax is None else args.nmax)
        rep = spectra.composite_spectrum(
            args.internal, cm, "composite-spurious", count=args.count
        )
    return _spectrum_report(rep, "spectrum composite")


def cmd_separate(args) -> dict:
    masses = [rat(v) for v in args.masses.split(",") if v != ""]
    if len(masses) < 2:
        raise ValueError("--masses expects at least two comma-separated values")
    if len(masses) == 2:
        cmap = two_body_transform(masses[0], masses[1], d=args.dim)
        kind = "two-body"
    else:
        cmap = jacobi_transform(masses, d=args.dim)
        kind = "jacobi"
    canon = verify_canonical(cmap)
    ctx = cmap.old_context()
    if args.expr is not None:
        h = parse_expression(args.expr, ctx)
    else:
        h = kinetic_energy(ctx, dict(enumerate(masses)), args.dim)
    report = {
        "command": "separate",
        "kind": kind,
        "dim": args.dim,
        "masses": masses,
        "position_labels": list(cmap.position_labels),
        "momentum_labels": list(cmap.momentum_labels),
        "position_matrix": cmap.a,
        "momentum_matrix": cmap.b,
        "canonical": {
            "passed": canon.passed,
            "violations": [
                [a, b, format_poly(p)] for a, b, p in canon.violations
            ],
        },
        "hamiltonian": format_poly(h),
    }
    try:
        h_cm, h_int, sep = separate_hamiltonian(h, cmap)
    except SeparationFailure as exc:
        report.update(
            status="mixed-terms",
            diagnostics=[
                "hamiltonian does not split into CM plus internal parts",
                *exc.mixed_terms,
            ],
            exit_code=2,
        )
        return report
    report.update(
        status="ok",
        h_cm=format_poly(h_cm),
        h_int=format_poly(h_int),
        checks={
            "cm_is_free_kinetic": sep.cm_is_free_kinetic,
            "relative_kinetic_ok": sep.relative_kinetic_ok,
            "reassembly_ok": sep.reassembly_ok,
            "total_mass": sep.total_mass,
            "reduced_mass": sep.reduced_mass,
        },
        diagnostics=[],
        exit_code=0,
    )
    return report


def _int_at_least(low: int):
    """An argparse ``type``: an integer no smaller than ``low``."""
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value
    return integer


def _finite(text: str) -> float:
    """An argparse ``type``: a finite float."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


def _finite_list(text: str) -> list[float]:
    """An argparse ``type``: comma-separated finite floats, empty items skipped."""
    return [_finite(v) for v in text.split(",") if v != ""]


def _finite_pair(text: str) -> tuple[float, float]:
    """An argparse ``type``: two comma-separated finite floats ``A,B``."""
    if len(items := text.split(",")) != 2:
        raise argparse.ArgumentTypeError(f"expects A,B, got {text!r}")
    return _finite(items[0]), _finite(items[1])


class _Parser(argparse.ArgumentParser):
    """argparse, except that a word starting like a negative number (``-1,2``,
    ``-.5``, ``-1e3``) is always a value, so ``--internal -1,2`` parses as
    ``--internal=-1,2``.  argparse's own pattern takes only ``-1`` and
    ``-1.5`` for values; no option here starts with a digit, so no option is
    lost.  Subparsers are built by the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at its first use and then shared: parsing
    reads it and never changes it.  Each subcommand runs ``cmd_<command>``, or
    ``cmd_spectrum_<kind>``, looked up by ``main`` when it runs."""
    parser = _Parser(
        prog="phasealg",
        description="Exact constraint-algebra closures, invariants and spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_close = sub.add_parser("close", help="close the bracket algebra of a problem")
    p_close.add_argument("problem", help="problem file path or bundled name")
    p_close.add_argument("-o", "--output", help="write the JSON report here")
    p_close.add_argument(
        "--set", action="append", metavar="NAME=VALUE", help="override a parameter"
    )

    p_inv = sub.add_parser("invariants", help="search for Casimir and centre elements")
    p_inv.add_argument("problem")
    p_inv.add_argument("--casimir", action="store_true", help="quadratic ansatz only")
    p_inv.add_argument("--center", action="store_true", help="bounded-degree centre only")
    p_inv.add_argument("--degree", type=_int_at_least(0), help="centre ansatz total degree")
    p_inv.add_argument("-o", "--output")
    p_inv.add_argument("--set", action="append", metavar="NAME=VALUE")

    p_spec = sub.add_parser("spectrum", help="numerical level tables")
    spec_sub = p_spec.add_subparsers(dest="spectrum_command", required=True)

    p_box = spec_sub.add_parser("box", help="exact levels of a boxed free particle")
    p_box.add_argument("--mass", type=_finite, default=1.0)
    p_box.add_argument("--side", type=_finite, default=1.0)
    p_box.add_argument("--nmax", type=int, default=3)
    p_box.add_argument("-o", "--output")

    p_int = spec_sub.add_parser("internal", help="1D finite-difference levels")
    p_int.add_argument(
        "--potential",
        choices=tuple(_POTENTIAL_OPTIONS),
        default="harmonic",
    )
    # refused unless the potential reads them (_POTENTIAL_OPTIONS)
    p_int.add_argument("--omega", type=_finite)
    p_int.add_argument("--side", type=_finite)
    p_int.add_argument("--kappa", type=_finite)
    p_int.add_argument("--rmin", type=_finite)
    p_int.add_argument("--table", help="two-column file for tabulated potentials")
    p_int.add_argument("--domain", type=_finite_pair, metavar="A,B")
    p_int.add_argument("--mass", type=_finite, default=1.0)
    p_int.add_argument("--grid", type=int, default=2000)
    p_int.add_argument("--count", type=int, default=5)
    p_int.add_argument("-o", "--output")

    p_comp = spec_sub.add_parser("composite", help="internal plus CM spectra")
    p_comp.add_argument("--mode", choices=("right", "spurious"), required=True)
    p_comp.add_argument("--internal", type=_finite_list, required=True, metavar="E1,E2,...")
    p_comp.add_argument("--f", type=_finite, help="offset for right mode")
    p_comp.add_argument("--mass", type=_finite)
    p_comp.add_argument("--side", type=_finite)
    p_comp.add_argument("--nmax", type=int, help="spurious mode only (default 3)")
    p_comp.add_argument("--count", type=int, help="truncate spurious level list")
    p_comp.add_argument("-o", "--output")

    p_sep = sub.add_parser("separate", help="split off the centre of mass")
    p_sep.add_argument("--masses", required=True, metavar="M1,M2[,...]")
    p_sep.add_argument("--dim", type=_int_at_least(1), default=3)
    p_sep.add_argument(
        "--expr",
        help="Hamiltonian over q1..qNd, p1..pNd (default: total kinetic energy)",
    )
    p_sep.add_argument("-o", "--output")

    return parser


def _apply_memory_cap() -> None:
    cap = os.environ.get("PHASEALG_MAX_MEMORY_MB")
    if not cap:
        return
    try:
        megabytes = int(cap)
    except ValueError as exc:
        raise ValueError(
            f"PHASEALG_MAX_MEMORY_MB must be an integer, got {cap!r}"
        ) from exc
    if megabytes <= 0:
        raise ValueError("PHASEALG_MAX_MEMORY_MB must be positive")
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return
    soft = megabytes * 1024 * 1024
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        soft = min(soft, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def main(argv=None) -> int:
    """Run one command (``argv`` defaults to ``sys.argv[1:]``) and return its
    exit code.

    The arguments are parsed before the memory cap is set.  ``spectrum
    internal`` then imports numpy and scipy (``spectra._float_layer``), still
    before the cap: the address space they map counts against the cap, and
    no import can fail under it.  No other command loads them.
    """
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        if command == "spectrum":
            command += "_" + args.spectrum_command
            if command == "spectrum_internal":
                spectra._float_layer()   # loaded before the cap, see above
        _apply_memory_cap()
        report = globals()["cmd_" + command](args)
        _emit(report, args.output)
        return report["exit_code"]
    except SystemExit as exc:  # argparse errors carry their own code
        code = exc.code
        return code if isinstance(code, int) else 2
    except (PhaseAlgError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        pass
    # Only a MemoryError gets here.  It is reported after the handler has
    # ended, which drops the traceback and the memory its frames still hold.
    cap = os.environ.get("PHASEALG_MAX_MEMORY_MB")
    limit = f"PHASEALG_MAX_MEMORY_MB={cap}" if cap else "no PHASEALG_MAX_MEMORY_MB cap"
    print(f"error: out of memory ({limit})", file=sys.stderr)
    return 5


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
