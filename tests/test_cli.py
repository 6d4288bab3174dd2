import filecmp
import io
import json
import math
import os
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from phasealg.cli import main


def run_json(capsys, argv):
    """Run main() and parse the stdout report."""
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_problem(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_well(path):
    """A tabulated harmonic well V = x^2/2 on [-10, 10]."""
    lines = ["# x  V"]
    for i in range(201):
        x = -10 + 0.1 * i
        lines.append(f"{x} {0.5 * x * x}")
    path.write_text("\n".join(lines) + "\n")


def test_close_bundled_sphere(capsys):
    code, report = run_json(capsys, ["close", "nsphere"])
    assert code == 0
    assert report["status"] == "ok"
    assert report["exit_code"] == 0
    closure = report["closure"]
    assert closure["size"] == 4
    assert [b["name"] for b in closure["basis"]] == ["H", "U", "g1", "1"]
    assert [b["identity"] for b in closure["basis"]] == [False, False, False, True]
    assert ["H", "U", "g1", "-2"] in closure["structure_constants"]
    assert ["U", "g1", "1", "2"] in closure["structure_constants"]
    assert any("overall sign" in d for d in report["diagnostics"])
    assert any("identity" in d and "{U, g1}" in d for d in report["diagnostics"])


def test_close_bundled_cm(capsys):
    code, report = run_json(capsys, ["close", "cm"])
    assert code == 0
    assert report["closure"]["size"] == 8


def test_close_accepts_suffixed_names(capsys):
    for name in ("nsphere.problem", "nsphere.json"):
        code, report = run_json(capsys, ["close", name])
        assert code == 0
        assert report["closure"]["size"] == 4


def test_close_output_files_byte_stable(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["close", "nsphere", "-o", str(out1)]) == 0
    assert main(["close", "nsphere", "-o", str(out2)]) == 0
    capsys.readouterr()
    assert filecmp.cmp(out1, out2, shallow=False)
    assert out1.read_bytes().endswith(b"\n")


def test_close_parameter_override(capsys):
    code, report = run_json(capsys, ["close", "nsphere", "--set", "m=2"])
    assert code == 0
    assert ["H", "U", "g1", "-1"] in report["closure"]["structure_constants"]
    assert report["problem"]["params"]["m"] == "2"


def test_close_non_closing_problem(tmp_path, capsys):
    out = tmp_path / "quartic.json"
    code = main(["close", "quartic", "-o", str(out)])
    capsys.readouterr()
    assert code == 3
    report = json.loads(out.read_text())
    assert report["status"] == "non-closing"
    assert report["exit_code"] == 3
    assert any("max_basis" in d for d in report["diagnostics"])
    assert any("overall sign" in d for d in report["diagnostics"])


def test_close_refuses_seeds_past_max_basis(tmp_path, capsys):
    """Two independent seeds under ``max_basis`` 1: the second does not fit,
    so the run stops at exit 3 with a basis size of the cap, not exit 0
    with a basis of 2."""
    path = write_problem(tmp_path, "cap.json", {
        "dof": 2, "generators": {"A": "q1", "B": "q2"}, "options": {"max_basis": 1}})
    code, report = run_json(capsys, ["close", path])
    assert code == 3
    assert report["status"] == "non-closing"
    assert "closure" not in report
    assert report["diagnostics"][0] == ("algebra does not close within limits: "
                                        "seed 'B' exceeds max_basis 1 (basis size 1)")


def test_close_missing_problem_file(capsys):
    code = main(["close", "no-such-problem"])
    err = capsys.readouterr().err
    assert code == 4
    assert "no-such-problem" in err


def test_close_output_to_directory_fails(tmp_path, capsys):
    code = main(["close", "nsphere", "-o", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 4
    assert "i/o error" in err


def test_close_reports_parse_position(tmp_path, capsys):
    path = write_problem(
        tmp_path,
        "broken.json",
        {"dof": 1, "generators": {"H": "q1 + "}},
    )
    code = main(["close", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "at position 5" in err


def test_close_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["close", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_close_rejects_unknown_option(tmp_path, capsys):
    path = write_problem(
        tmp_path,
        "opts.json",
        {"dof": 1, "generators": {"H": "p1^2"}, "options": {"color": "red"}},
    )
    code = main(["close", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "color" in err


BAD_FIELD_TYPES = {
    "params-float": ({"params": {"m": 1.5}}, "params.m"),
    "hbar-float": ({"options": {"hbar": 0.5}}, "options.hbar"),
    "hbar-null": ({"options": {"hbar": None}}, "options.hbar"),
    "max-basis-list": ({"options": {"max_basis": [32]}}, "options.max_basis"),
    "dof-bool": ({"dof": True}, "dof"),
    "max-basis-float": ({"options": {"max_basis": 2.9}}, "options.max_basis"),
    "max-basis-negative": ({"options": {"max_basis": -1}}, "options.max_basis"),
    "max-degree-zero": ({"options": {"max_degree": 0}}, "options.max_degree"),
    "center-degree-negative": ({"options": {"center_degree": -1}}, "options.center_degree"),
    "f-of-m-list": ({"options": {"f_of_M": [1, 2]}}, "options.f_of_M"),
    "f-of-m-integer": ({"options": {"f_of_M": 3}}, "options.f_of_M"),
}


@pytest.mark.parametrize("case", sorted(BAD_FIELD_TYPES))
def test_invariants_rejects_bad_field_types(case, tmp_path, capsys):
    fields, name = BAD_FIELD_TYPES[case]
    payload = {"dof": 1, "generators": {"H": "p1^2"}, **fields}
    code = main(["invariants", write_problem(tmp_path, "bad.json", payload)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"'{name}'" in err
    assert "Traceback" not in err


def test_invariants_sphere_full(capsys):
    code, report = run_json(capsys, ["invariants", "nsphere"])
    assert code == 0
    cas = report["casimir"]
    assert cas["nontrivial_count"] == 1
    sol = next(s for s in cas["solutions"] if not s["trivial"])
    assert sol["quadratic"] == {"H*U": "1", "g1*g1": "-1/2"}
    assert sol["linear"] == {"H": "1"}
    assert sol["constant"] == "0"
    assert sol["verified"] is True
    center = report["center"]
    assert center["degree"] == 2
    assert center["nonconstant_count"] == 3
    assert "note" not in center


def test_invariants_cm_schur_note(capsys):
    code, report = run_json(capsys, ["invariants", "cm"])
    assert code == 0
    assert report["casimir"]["nontrivial_count"] == 0
    center = report["center"]
    assert center["nonconstant_count"] == 0
    assert center["solutions"] == ["1"]
    assert "Schur" in center["note"]


def test_invariants_flag_selection(capsys):
    code, report = run_json(capsys, ["invariants", "nsphere", "--casimir"])
    assert code == 0
    assert "casimir" in report and "center" not in report
    code, report = run_json(
        capsys, ["invariants", "nsphere", "--center", "--degree", "1"]
    )
    assert code == 0
    assert "center" in report and "casimir" not in report
    assert report["center"]["degree"] == 1
    assert report["center"]["nonconstant_count"] == 0
    assert "note" in report["center"]


def test_spectrum_box(capsys):
    code, report = run_json(
        capsys, ["spectrum", "box", "--mass", "1", "--side", "1", "--nmax", "2"]
    )
    assert code == 0
    assert report["mode"] == "box-cm"
    assert len(report["levels"]) == 8
    ground = report["levels"][0]
    assert ground["n"] == [1, 1, 1]
    assert ground["energy"] == pytest.approx(3 * math.pi**2 / 2)


def test_spectrum_internal_harmonic(capsys):
    code, report = run_json(
        capsys,
        [
            "spectrum",
            "internal",
            "--potential",
            "harmonic",
            "--omega",
            "1",
            "--count",
            "3",
            "--grid",
            "2000",
        ],
    )
    assert code == 0
    energies = [lv["energy"] for lv in report["levels"]]
    assert energies == pytest.approx([0.5, 1.5, 2.5], abs=5e-3)
    assert [lv["label"] for lv in report["levels"]] == [[0], [1], [2]]


def test_spectrum_internal_tabulated_needs_table(capsys):
    code = main(["spectrum", "internal", "--potential", "tabulated"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--table" in err


def test_spectrum_internal_reads_table(tmp_path, capsys):
    table = tmp_path / "well.dat"
    write_well(table)
    code, report = run_json(
        capsys,
        [
            "spectrum",
            "internal",
            "--potential",
            "tabulated",
            "--table",
            str(table),
            "--count",
            "1",
        ],
    )
    assert code == 0
    assert report["levels"][0]["energy"] == pytest.approx(0.5, abs=1e-2)


def test_spectrum_composite_right_offset_flag(capsys):
    code, report = run_json(
        capsys,
        ["spectrum", "composite", "--mode", "right", "--internal", "1,2", "--f", "10"],
    )
    assert code == 0
    assert report["offset"] == 10.0
    assert [lv["energy"] for lv in report["levels"]] == [11.0, 12.0]
    assert len(report["levels"]) == 2


def test_spectrum_composite_right_refuses_mass(capsys):
    """Right mode takes its offset from --f only: --mass is refused, not
    read as the offset."""
    code = main(["spectrum", "composite", "--mode", "right", "--internal", "1,2", "--mass", "5"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "--mass" in err
    assert out == ""


def test_spectrum_composite_right_needs_offset(capsys):
    code = main(["spectrum", "composite", "--mode", "right", "--internal", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--f" in err or "--mass" in err


def test_spectrum_composite_refuses_non_finite_values(tmp_path, capsys):
    """NaN and infinite energies are refused while the arguments are
    parsed, and an energy that overflows stops the report from being
    written: either way exit 2 and no report, which would not be JSON."""
    right = ["spectrum", "composite", "--mode", "right"]
    for extra, option in ((["--internal", "nan,1", "--f", "2"], "--internal"),
                          (["--internal", "1,-inf", "--f", "2"], "--internal"),
                          (["--internal", "1,2", "--f", "inf"], "--f"),
                          (["--internal", "1,2", "--f", "nan"], "--f")):
        assert main(right + extra) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {option}: must be a finite number" in err
    spurious = ["spectrum", "composite", "--mode", "spurious", "--mass", "1", "--side", "1"]
    assert main(spurious + ["--internal", "0,nan"]) == 2
    assert capsys.readouterr().out == ""
    overflow = right + ["--internal", "1e308", "--f", "1e308"]
    assert main(overflow) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err
    report = tmp_path / "report.json"
    assert main(overflow + ["-o", str(report)]) == 2
    capsys.readouterr()
    assert not report.exists()


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "box", "--side", "1e-200"],
     ["spectrum", "box", "--side", "1e-160"],
     ["spectrum", "box", "--mass", "1e-320"],
     ["spectrum", "box", "--mass", "1e300", "--side", "1e10"],
     ["spectrum", "composite", "--mode", "spurious", "--internal", "1,2",
      "--mass", "1", "--side", "1e-200"]],
    ids=["box-underflow", "box-side-overflow", "box-mass-overflow", "box-levels-underflow",
         "composite-underflow"],
)
def test_spectrum_box_levels_out_of_float_range(argv, capsys):
    """Box levels outside the normal float64 range exit 2 with an error
    naming mass and side, and write no report."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: box levels for mass" in err and "side" in err


@pytest.mark.parametrize(
    "argv",
    [["--domain=0,1e-160"], ["--mass", "1e-310"], ["--potential", "box", "--side", "1e300"]],
    ids=["spacing-underflow", "mass-subnormal", "spacing-overflow"],
)
def test_spectrum_internal_kinetic_scale_out_of_float_range(argv, capsys):
    """A finite-difference kinetic scale 1/(m h^2) outside the normal float
    range exits 2 with an error naming the mass and the grid spacing, and
    writes no report.  (Once: a ZeroDivisionError traceback, scipy's
    "array must not contain infs or NaNs", and every level 0.0.)"""
    assert main(["spectrum", "internal", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "mass" in err and "grid spacing" in err


@pytest.mark.filterwarnings("error")
def test_spectrum_internal_omega_square_must_be_finite(capsys):
    """A finite --omega whose square overflows is refused when the potential
    is built: exit 2, an error naming omega, no report."""
    assert main(["spectrum", "internal", "--omega", "1e200"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: omega 1e+200 must have a finite square\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["--potential", "harmonic", "--omega", "1e154", "--grid", "100", "--count", "2"],
     "potential evaluates to non-finite values"),
    (["--potential", "coulomb", "--kappa", "1e308", "--rmin", "1e-10"],
     "potential evaluates to non-finite values"),
    (["--potential", "tabulated", "--table", "{empty}"],
     "tabulated potential file needs two columns"),
], ids=["harmonic-overflow", "coulomb-overflow", "empty-table"])
def test_spectrum_internal_error_is_all_of_stderr(argv, message, tmp_path, capsys):
    """A potential that overflows on the grid, or an empty table, exits 2
    with one error line and nothing before it: numpy's overflow warnings and
    loadtxt's empty-input warning are silenced (here every warning is an
    error), because the checks that follow report each case."""
    empty = tmp_path / "empty.dat"
    empty.write_text("")
    assert main(["spectrum", "internal", *(a.format(empty=empty) for a in argv)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--mode", "right", "--internal", "1e308", "--f", "1e308"],
     "internal level 1e+308 plus offset 1e+308 is not a finite energy"),
    (["--mode", "spurious", "--internal", "1.7e308", "--mass", "1.5e-307", "--side", "1",
      "--nmax", "1"],
     "internal level 1.7e+308 plus box level 9.869604401089359e+307 is not a finite energy"),
], ids=["right", "spurious"])
def test_spectrum_composite_refuses_non_finite_level(argv, message, capsys):
    """A composite level that overflows exits 2 with an error naming the
    internal level and the offset or box level, and writes no report.
    (Once: exit 2 with json's "Out of range float values are not JSON
    compliant: inf".)"""
    assert main(["spectrum", "composite", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["internal", "--potential", "coulomb", "--kappa", "1e17", "--rmin", "0.1", "--count", "3"],
     "coulomb potential: levels -9.999999999999999e+17 and -9.999999999999996e+17 agree to"
     " float64 rounding, so their splitting is lost"),
    (["box", "--nmax", "47"], "box ladder needs 103823 levels, cap is 100000"),
    (["composite", "--mode", "spurious", "--internal", "1,2", "--mass", "1", "--side", "1",
      "--nmax", "37"],
     "spurious composite needs 101306 levels (2 internal x 50653 box), cap is 100000"),
    (["internal", "--potential", "harmonic", "--grid", "1000001"],
     "grid of 1000001 points, cap is 1000000"),
], ids=["fd-levels-merged", "box-over-cap", "spurious-over-cap", "grid-over-cap"])
def test_spectrum_refuses_what_float64_or_the_level_cap_cannot_hold(argv, message, capsys):
    """Levels of a well so deep that float64 merges them exit 2, not 0 with
    distinct levels in one degeneracy group; a box ladder or spurious
    composite just past ``MAX_BOX_LEVELS``, and a finite-difference grid
    just past ``MAX_GRID_POINTS``, exit 2 before they are built."""
    assert main(["spectrum", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


NON_FINITE_OPTIONS = [
    (["spectrum", "box"], "--mass"),
    (["spectrum", "box"], "--side"),
    (["spectrum", "internal", "--potential", "harmonic"], "--omega"),
    (["spectrum", "internal", "--potential", "box"], "--side"),
    (["spectrum", "internal", "--potential", "coulomb"], "--kappa"),
    (["spectrum", "internal", "--potential", "coulomb"], "--rmin"),
    (["spectrum", "internal", "--potential", "harmonic"], "--mass"),
    (["spectrum", "composite", "--mode", "spurious", "--internal", "1", "--mass", "1"], "--side"),
    (["spectrum", "composite", "--mode", "spurious", "--internal", "1", "--side", "1"], "--mass"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("argv, option", NON_FINITE_OPTIONS,
                         ids=[f"{a[1]}{o}" for a, o in NON_FINITE_OPTIONS])
def test_spectrum_float_options_must_be_finite(argv, option, value, capsys):
    """Non-finite float options are refused while parsing: exit 2, an error
    naming the option, no report, and no numpy warning."""
    assert main(argv + [f"{option}={value}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {option}: must be a finite number, got {value!r}" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("domain, message", [
    ("-inf,10", "must be a finite number, got '-inf'"),
    ("-10,nan", "must be a finite number, got 'nan'"),
    ("-10,1e400", "must be a finite number, got '1e400'"),
    ("-10", "expects A,B, got '-10'"),
    ("-10,10,20", "expects A,B, got '-10,10,20'"),
    ("-10,", "must be a finite number, got ''"),
])
def test_spectrum_internal_domain_must_be_two_finite_numbers(domain, message, capsys):
    argv = ["spectrum", "internal", "--potential", "coulomb", f"--domain={domain}"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --domain: {message}" in err


UNREAD_OPTIONS = {
    "right-f-count-nmax-side": (
        ["composite", "--mode", "right", "--internal", "1,2", "--f", "1",
         "--count", "1", "--nmax", "9", "--side", "4"], ["--count", "--side", "--nmax"]),
    "right-f-mass": (
        ["composite", "--mode", "right", "--internal", "1,2", "--f", "1", "--mass", "3"],
        ["--mass"]),
    "right-mass-nmax": (
        ["composite", "--mode", "right", "--internal", "1,2", "--mass", "3", "--nmax", "2"],
        ["--nmax"]),
    "spurious-f": (
        ["composite", "--mode", "spurious", "--internal", "1,2", "--mass", "1", "--side", "1",
         "--f", "2"], ["--f"]),
    "box-omega-kappa-domain": (
        ["internal", "--potential", "box", "--side", "2", "--omega", "7", "--kappa", "3",
         "--domain=-1,1", "--count", "2", "--grid", "100"], ["--omega", "--kappa", "--domain"]),
    "harmonic-table-side-rmin": (
        ["internal", "--potential", "harmonic", "--table", "x.dat", "--side", "3", "--rmin", "9",
         "--count", "2", "--grid", "100"], ["--table", "--side", "--rmin"]),
    "coulomb-omega": (
        ["internal", "--potential", "coulomb", "--omega", "2", "--count", "2", "--grid", "100"],
        ["--omega"]),
    "tabulated-domain": (
        ["internal", "--potential", "tabulated", "--table", "x.dat", "--domain=-1,1"],
        ["--domain"]),
    "default-potential-side": (["internal", "--side", "2"], ["--side"]),
}


@pytest.mark.parametrize("name", sorted(UNREAD_OPTIONS))
def test_spectrum_refuses_options_the_mode_does_not_read(name, capsys):
    """An option that the composite mode or the potential does not read
    exits 2, names every such option given, and writes no report."""
    argv, options = UNREAD_OPTIONS[name]
    assert main(["spectrum", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert all(option in err for option in options), err


def test_spectrum_composite_spurious(capsys):
    code, report = run_json(
        capsys,
        [
            "spectrum",
            "composite",
            "--mode",
            "spurious",
            "--internal",
            "0",
            "--mass",
            "1",
            "--side",
            "1",
            "--nmax",
            "2",
        ],
    )
    assert code == 0
    assert len(report["levels"]) == 8
    assert report["levels"][0]["label"] == [0, [1, 1, 1]]
    code, short = run_json(
        capsys,
        [
            "spectrum",
            "composite",
            "--mode",
            "spurious",
            "--internal",
            "0",
            "--mass",
            "1",
            "--side",
            "1",
            "--nmax",
            "2",
            "--count",
            "3",
        ],
    )
    assert code == 0
    assert len(short["levels"]) == 3


def test_separate_two_body(capsys):
    code, report = run_json(
        capsys, ["separate", "--masses", "1,1", "--dim", "1"]
    )
    assert code == 0
    assert report["kind"] == "two-body"
    assert report["h_cm"] == "1/4*p2^2"
    assert report["h_int"] == "p1^2"
    assert report["canonical"]["passed"] is True
    checks = report["checks"]
    assert checks["cm_is_free_kinetic"] is True
    assert checks["reassembly_ok"] is True
    assert checks["total_mass"] == "2"
    assert checks["reduced_mass"] == "1/2"


def test_separate_jacobi_three_body(capsys):
    code, report = run_json(
        capsys, ["separate", "--masses", "1,1,1", "--dim", "1"]
    )
    assert code == 0
    assert report["kind"] == "jacobi"
    assert report["checks"]["reduced_mass"] is None
    assert report["position_labels"] == ["r1", "r2", "R"]


def test_separate_mixed_terms(tmp_path, capsys):
    out = tmp_path / "sep.json"
    code = main(
        [
            "separate",
            "--masses",
            "1,1",
            "--dim",
            "1",
            "--expr",
            "p1^2/2 + p2^2/2 + q1^2",
            "-o",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 2
    report = json.loads(out.read_text())
    assert report["exit_code"] == code
    assert report["status"] == "mixed-terms"
    assert "r*R" in report["diagnostics"]


def test_separate_empty_expr_is_parsed(capsys):
    """An empty --expr is an expression like any other, not an absent one."""
    assert main(["separate", "--masses", "1,2", "--dim", "1", "--expr", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: unexpected end of input (at position 0)\n"


def test_separate_bad_masses(capsys):
    assert main(["separate", "--masses", "1"]) == 2
    assert main(["separate", "--masses", "0,1"]) == 2
    capsys.readouterr()


RAISED_FAILURES = {
    "close-parse-error": ["close", "broken.json"],
    "invariants-ansatz-over-cap": ["invariants", "cm", "--center", "--degree", "9"],
    "separate-one-mass": ["separate", "--masses", "1"],
    "spectrum-count-zero": ["spectrum", "composite", "--mode", "spurious", "--internal", "1",
                            "--mass", "1", "--side", "1", "--count", "0"],
}


@pytest.mark.parametrize("name", sorted(RAISED_FAILURES))
def test_failure_raised_as_exception_writes_no_report(name, tmp_path, monkeypatch, capsys):
    """A failure raised as an exception, in any command family, exits 2
    with an error on stderr and writes no report, to -o or to stdout."""
    monkeypatch.chdir(tmp_path)
    write_problem(tmp_path, "broken.json", {"dof": 1, "generators": {"H": "p1^2 +"}})
    assert main([*RAISED_FAILURES[name], "-o", "report.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert not (tmp_path / "report.json").exists()


# An exponent past the packed kernel's 64-bit fields, reached by the parser
# (q1^(2^64), squaring q1^(2^63)) or by a bracket (the closure of q1^(2^63)
# and p1^(2^63): A = q1^(2^63) against g2, which holds q1^(2^64 - 2)):
# generators, max_degree, the two operand exponents of q1 named in the error.
OVERFLOWS = {
    "parse": ({"A": f"q1^{2 ** 64}"}, 2 ** 64, (2 ** 63, 2 ** 63)),
    "bracket": ({"A": f"q1^{2 ** 63}", "B": f"p1^{2 ** 63}"}, 2 ** 65, (2 ** 63, 2 ** 64 - 2)),
}


@pytest.mark.parametrize("command", ["close", "invariants"])
@pytest.mark.parametrize("route", sorted(OVERFLOWS))
def test_packed_field_overflow_exits_two(route, command, tmp_path, capsys):
    """An exponent the packed kernel cannot hold is an input error: exit 2,
    the variable and the two operand exponents whose sum overflows named on
    stderr, and no report on stdout."""
    generators, max_degree, (left, right) = OVERFLOWS[route]
    path = write_problem(tmp_path, "big.json", {
        "dof": 1, "generators": generators, "options": {"max_degree": max_degree}})
    assert main([command, path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: exponent {left} + {right} of q1 does not fit a 64-bit packed field\n"


def test_close_sizes_each_walk_by_its_own_operands(tmp_path, capsys):
    """A walk's packed fields hold the sum of its two operands' largest
    exponents, not twice the largest exponent so far: ``close`` on
    q1^(2^63) and q1 (2^63 + 1 fits 64 bits, 2^64 would not) exits 0 with a
    basis of 2, while ``invariants``, whose ansatz multiplies A by itself,
    keeps its exit 2 and its error."""
    path = write_problem(tmp_path, "big.json", {
        "dof": 1, "generators": {"A": f"q1^{2 ** 63}", "B": "q1"},
        "options": {"max_degree": 2 ** 65}})
    assert main(["close", path]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["closure"]["size"] == 2
    assert err == ""
    assert main(["invariants", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: exponent {2 ** 63} + {2 ** 63} of q1 does not fit a 64-bit packed field\n"


# A list option whose first value is negative, given as two words.
NEGATIVE_VALUES = {
    "composite-internal": (
        ["spectrum", "composite", "--mode", "right", "--internal", "-1,2", "--f", "1"], "--internal"),
    "internal-domain": (
        ["spectrum", "internal", "--potential", "harmonic", "--omega", "1",
         "--domain", "-10,10", "--count", "2"], "--domain"),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_VALUES))
def test_negative_value_parses_as_its_equals_form(name, capsys):
    """``--opt -1,2`` gives the report bytes of ``--opt=-1,2``; an option whose
    value is missing, before another option or at the end, is still an
    argparse error, exit 2 with usage."""
    argv, option = NEGATIVE_VALUES[name]
    i = argv.index(option)
    assert main([*argv[:i], f"{option}={argv[i + 1]}", *argv[i + 2:]]) == 0
    want = capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == want
    for missing in ([*argv[:i + 1], *argv[i + 2:]], [*argv[:i], *argv[i + 2:], option]):
        assert main(missing) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: ")
        assert f"argument {option}: expected one argument" in err


def test_readme_cli_examples_succeed(tmp_path, monkeypatch, capsys):
    """Every line of README's "## Command line" sh block exits 0."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert examples and all(argv[0] == "phasealg" for argv in examples)
    monkeypatch.chdir(tmp_path)
    write_well(tmp_path / "well.dat")
    for _, *argv in examples:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_argparse_errors_return_two(capsys):
    assert main([]) == 2
    assert main(["close"]) == 2
    assert main(["spectrum", "composite", "--mode", "sideways", "--internal", "1"]) == 2
    capsys.readouterr()
    # Out-of-range counts are refused while parsing, before any closure runs.
    for argv, option in ((["invariants", "cm", "--degree", "-1"], "--degree"),
                         (["separate", "--masses", "1,1", "--dim", "0"], "--dim")):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {option}: must be an integer >= " in err


def test_memory_cap_invalid(monkeypatch, capsys):
    monkeypatch.setenv("PHASEALG_MAX_MEMORY_MB", "banana")
    assert main(["spectrum", "box", "--nmax", "1"]) == 2
    monkeypatch.setenv("PHASEALG_MAX_MEMORY_MB", "-5")
    assert main(["spectrum", "box", "--nmax", "1"]) == 2
    capsys.readouterr()


def test_memory_cap_applied(monkeypatch, capsys):
    import resource

    calls = []
    real_get = resource.getrlimit

    def fake_setrlimit(kind, pair):
        calls.append((kind, pair))

    monkeypatch.setenv("PHASEALG_MAX_MEMORY_MB", "512")
    monkeypatch.setattr(resource, "setrlimit", fake_setrlimit)
    assert main(["spectrum", "box", "--nmax", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    kind, (soft, hard) = calls[0]
    assert kind == resource.RLIMIT_AS
    expected = 512 * 1024 * 1024
    _, real_hard = real_get(resource.RLIMIT_AS)
    if real_hard != resource.RLIM_INFINITY:
        expected = min(expected, real_hard)
    assert soft == expected
    assert hard == real_hard


@pytest.mark.parametrize("cap", ["120", None])
def test_out_of_memory_exits_five(monkeypatch, capsys, cap):
    """A command that raises MemoryError ends with exit 5 and one stderr
    line naming the cap, not a traceback, printed only once the failed
    command's frames (and what they allocated) are released.  The cap
    itself is not applied: it would limit the test process."""
    from phasealg import cli

    class Allocation:
        pass

    allocations = []

    def exhausted(args):
        held = Allocation()
        allocations.append(weakref.ref(held))
        raise MemoryError

    class Stderr(io.StringIO):
        def write(self, text):
            assert allocations[0]() is None, "stderr written while the frames are alive"
            return super().write(text)

    stderr = Stderr()
    monkeypatch.setattr(cli, "_apply_memory_cap", lambda: None)
    monkeypatch.setattr(cli, "cmd_close", exhausted)
    monkeypatch.setattr(sys, "stderr", stderr)
    if cap is None:
        monkeypatch.delenv("PHASEALG_MAX_MEMORY_MB", raising=False)
    else:
        monkeypatch.setenv("PHASEALG_MAX_MEMORY_MB", cap)
    assert main(["close", "nsphere"]) == 5
    assert capsys.readouterr().out == ""
    expected = f"PHASEALG_MAX_MEMORY_MB={cap}" if cap else "no PHASEALG_MAX_MEMORY_MB cap"
    assert stderr.getvalue() == f"error: out of memory ({expected})\n"


def test_parser_is_built_once_and_not_at_import():
    from phasealg import cli

    assert cli.build_parser() is cli.build_parser()
    probe = "import phasealg.cli as cli; print(cli.build_parser.cache_info().currsize)"
    src = str(Path(__file__).parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert done.stdout == "0\n"


def _fresh_interpreter(probe: str, *args: str, **env: str) -> dict:
    """The JSON that ``probe`` prints, run with ``args`` in a new interpreter
    that imports ``phasealg`` from this checkout (numpy is loaded here)."""
    src = str(Path(__file__).parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src, **env}, check=True, timeout=120)
    return json.loads(done.stdout)


EXACT_START_PROBE = """
import json, sys
import phasealg, phasealg.cli as cli
for name in ("nsphere", "cm", "quartic"):
    cli.load_problem(name)
commands = (["close", "cm"], ["invariants", "cm", "--center"],
            ["separate", "--masses", "1,2", "--dim", "3"])
codes = [cli.main([*argv, "-o", f"{sys.argv[1]}/{i}.json"]) for i, argv in enumerate(commands)]
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
listed = "fd_eigen_1d" in dir(phasealg)
from phasealg import fd_eigen_1d
print(json.dumps({"codes": codes, "loaded": loaded, "listed": listed,
                  "home": fd_eigen_1d.__module__}))
"""


def test_exact_commands_start_without_numpy_and_scipy(tmp_path):
    """Importing the package and the CLI, loading the bundled problems and
    running the exact commands loads neither numpy nor scipy; the float
    layer's names are still listed by ``dir`` and importable from the
    package."""
    seen = _fresh_interpreter(EXACT_START_PROBE, str(tmp_path))
    assert seen == {"codes": [0, 0, 0], "loaded": [], "listed": True,
                    "home": "phasealg.spectra"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0.json", "1.json", "2.json"]


CAP_ORDER_PROBE = """
import json, resource, sys
from phasealg.cli import main
def loaded():
    return sorted(m for m in ("numpy", "scipy", "scipy.linalg") if m in sys.modules)
at_cap = []
resource.setrlimit = lambda kind, pair: at_cap.append(loaded())
code = main(sys.argv[1:])
print(json.dumps({"code": code, "at_cap": at_cap, "at_exit": loaded()}))
"""
FLOAT_LAYER = ["numpy", "scipy", "scipy.linalg"]


@pytest.mark.parametrize("argv, layer", [
    (["spectrum", "internal"], FLOAT_LAYER),
    (["spectrum", "box"], []),
    (["spectrum", "composite", "--mode", "spurious", "--internal", "1", "--mass", "1",
      "--side", "1"], []),
    (["spectrum", "composite", "--mode", "right", "--internal", "1", "--f", "2"], []),
], ids=["internal", "box", "composite", "composite-right"])
def test_spectrum_loads_the_float_layer_before_the_memory_cap(argv, layer, tmp_path):
    """``spectrum internal`` imports numpy and scipy before the memory cap
    is set, so no import runs under the cap: imported under a small cap,
    they end in an ``ImportError`` or OpenBLAS's ``pthread_create failed``.
    ``spectrum box`` and both ``composite`` modes load neither, at the cap
    or by the time they exit."""
    seen = _fresh_interpreter(CAP_ORDER_PROBE, *argv, "-o", str(tmp_path / "report.json"),
                              PHASEALG_MAX_MEMORY_MB="512")
    assert seen == {"code": 0, "at_cap": [layer], "at_exit": layer}


def test_cached_parser_shares_no_state_between_calls(capsys):
    """Each call parses into a fresh namespace: an appended ``--set``, an
    option a potential refuses and an explicit ``--degree`` do not carry
    over to the next call, and argparse errors and ``--help`` still exit."""
    code, report = run_json(capsys, ["close", "cm", "--set", "M=2"])
    assert code == 0 and report["problem"]["overrides"] == ["M=2"]
    code, report = run_json(capsys, ["close", "cm"])
    assert code == 0 and report["problem"]["overrides"] == []

    code, _ = run_json(capsys, ["spectrum", "internal", "--potential", "coulomb", "--kappa", "2"])
    assert code == 0
    code, report = run_json(capsys, ["spectrum", "internal", "--potential", "harmonic"])
    assert code == 0 and report["mode"] == "internal"

    code, report = run_json(capsys, ["invariants", "cm", "--center", "--degree", "3"])
    assert code == 0 and report["center"]["degree"] == 3
    code, report = run_json(capsys, ["invariants", "cm", "--center"])
    assert code == 0 and report["center"]["degree"] == 2   # cm's center_degree

    assert main(["close"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: phasealg close")
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: phasealg")


DISPATCH = {
    "cmd_close": ["close", "cm"],
    "cmd_invariants": ["invariants", "cm"],
    "cmd_separate": ["separate", "--masses", "1,2"],
    "cmd_spectrum_box": ["spectrum", "box"],
    "cmd_spectrum_internal": ["spectrum", "internal"],
    "cmd_spectrum_composite": ["spectrum", "composite", "--mode", "right", "--internal", "1"],
}


@pytest.mark.parametrize("name", sorted(DISPATCH))
def test_every_command_is_dispatched_at_call_time(name, monkeypatch, capsys):
    """``main`` looks each ``cmd_*`` up when it runs, so a function patched
    after the parser was built is the one called."""
    from phasealg import cli

    assert main(["spectrum", "box", "--nmax", "1"]) == 0   # the parser is built
    capsys.readouterr()
    calls = []

    def stub(args):
        calls.append(args)
        return {"exit_code": 0}

    monkeypatch.setattr(cli, name, stub)
    code, report = run_json(capsys, DISPATCH[name])
    assert code == 0 and report == {"exit_code": 0}
    assert len(calls) == 1
