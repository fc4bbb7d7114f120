"""End-to-end command-line checks: exit codes, report envelope, warning
flags, config merging, start-up imports, and the CSV/decomposition file
formats.
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest.mock import ANY

import pytest

from circlekit import arch, cli, count, local
from circlekit.cli import main
from circlekit.local import LocalFactor
from circlekit.poly import parse_polynomial

LINEAR6 = "n=2\n1 1 0\n1 0 1\n-6 0 0\n"
# 3 x1 + 3 x2 - 18: content 3, so every zero mod 3 is singular and its
# Hensel tree at p = 3 has a node at level 1 or deeper
LINEAR18 = "n=2\n3 1 0\n3 0 1\n-18 0 0\n"
SQUARES3 = "n=3\n1 2 0 0\n1 0 2 0\n1 0 0 2\n"


@pytest.fixture
def poly_file(tmp_path):
    def write(text, name="poly.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, json.loads(out.read_text())


class TestEnvelope:
    def test_fields_and_exit_zero(self, poly_file, tmp_path):
        pf = poly_file(LINEAR6)
        code, rep = run_json(
            ["count", "--poly", pf, "--N", "5"], tmp_path)
        assert code == 0
        assert rep["tool"] == "circlekit"
        assert rep["command"] == "count"
        assert re.fullmatch(r"[0-9a-f]{64}", rep["poly_sha256"])
        assert rep["config"]["N"] == 5
        assert rep["flags"] == []
        assert rep["wall_time_s"] >= 0
        assert rep["result"]["value"] == pytest.approx(
            2 * math.log(2) ** 2 + math.log(3) ** 2)

    def test_reruns_identical_except_wall_time(self, poly_file, tmp_path):
        pf = poly_file(LINEAR6)
        argv = ["predict", "--poly", pf, "--N", "20", "--prime-bound", "10",
                "--box-points", str(1 << 14), "--ground-truth"]
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(argv + ["--output", str(out)])
            outs.append(out.read_text())
        strip = [re.sub(r'"wall_time_s": [0-9.e-]+', "", t) for t in outs]
        assert strip[0] == strip[1]

    def test_version_flag(self):
        with pytest.raises(SystemExit):
            main(["--version"])


class TestExitCodes:
    def test_flag_exit_on_empty_zero_set(self, poly_file, tmp_path):
        # no prime powers solve x1 + 500 = 0 below N = 50
        pf = poly_file("n=1\n1 1\n500 0\n")
        code, rep = run_json(
            ["predict", "--poly", pf, "--N", "50", "--prime-bound", "10",
             "--box-points", str(1 << 14)], tmp_path)
        assert code == 1
        assert "zero_measure" in rep["flags"]
        assert rep["result"]["main_term"] == 0.0

    def test_flag_exit_on_divergent_form(self, poly_file, tmp_path):
        pf = poly_file("n=2\n1 2 0\n-1 0 2\n")
        code, rep = run_json(
            ["sigma-inf", "--poly", pf, "--box-points", str(1 << 18)],
            tmp_path)
        assert code == 1
        assert "divergent" in rep["flags"]

    def test_usage_exit_on_missing_poly(self, tmp_path):
        code = main(["count", "--poly", str(tmp_path / "nope.txt"),
                     "--N", "5"])
        assert code == 2

    def test_usage_exit_on_missing_regularity_poly(self, poly_file, tmp_path):
        code = main(["regularity", "--poly", poly_file(LINEAR6),
                     "--poly", str(tmp_path / "nope.txt"),
                     "--N-list", "2", "--N-list", "3", "--N-list", "4"])
        assert code == 2

    def test_usage_exit_on_composite_p(self, poly_file):
        pf = poly_file(LINEAR6)
        assert main(["local", "--poly", pf, "--p", "6"]) == 2

    def test_usage_exit_on_malformed_poly(self, poly_file):
        pf = poly_file("n=2\n1 1\n")        # wrong exponent arity
        assert main(["count", "--poly", pf, "--N", "5"]) == 2

    def test_usage_exit_on_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestWarningFlags:
    """Every local-factor warning becomes a report flag and exit code 1."""

    def test_local_no_stabilization(self, poly_file, tmp_path):
        pf = poly_file(LINEAR18)
        code, rep = run_json(
            ["local", "--poly", pf, "--p", "3", "--tmax", "1"], tmp_path)
        assert code == 1
        assert rep["flags"] == ["no_stabilization"]

    def test_local_budget(self, poly_file, tmp_path, monkeypatch):
        def over_budget(b, p, t_max):
            return LocalFactor(p=p, partial_sums=[], mu_p=Fraction(0),
                               stabilized_at=None, flags=("budget",),
                               cut_at=1)
        monkeypatch.setattr(local, "mu_p", over_budget)
        pf = poly_file(LINEAR6)
        code, rep = run_json(["local", "--poly", pf, "--p", "3"], tmp_path)
        assert code == 1
        assert rep["flags"] == ["budget"]

    def test_series_no_stabilization(self, poly_file, tmp_path):
        pf = poly_file(LINEAR18)
        code, rep = run_json(
            ["series", "--poly", pf, "--prime-bound", "5", "--tmax", "1"],
            tmp_path)
        assert code == 1
        assert rep["flags"] == ["no_stabilization"]

    def test_predict_no_stabilization(self, poly_file, tmp_path):
        pf = poly_file(LINEAR18)
        code, rep = run_json(
            ["predict", "--poly", pf, "--N", "20", "--prime-bound", "5",
             "--tmax", "1", "--box-points", str(1 << 14)], tmp_path)
        assert code == 1
        assert rep["flags"] == ["no_stabilization"]
        assert [f["p"] for f in rep["result"]["factors"]] == [2, 3, 5]
        assert rep["result"]["factors"][1]["method"] == "hensel_valuation(1)"

    def test_reports_name_the_method(self, poly_file, tmp_path):
        pf = poly_file(LINEAR18)
        _, rep = run_json(["local", "--poly", pf, "--p", "5"], tmp_path)
        assert rep["result"]["method"] == "nonsingular"
        _, rep = run_json(["series", "--poly", pf, "--prime-bound", "5"],
                          tmp_path)
        assert [f["method"] for f in rep["result"]["factors"]] == \
            ["nonsingular", "hensel_valuation(1)", "nonsingular"]

    @pytest.mark.parametrize("text", [LINEAR6, "n=2\n1 2 1\n-1 0 0\n"])
    def test_local_budget_on_a_huge_prime(self, poly_file, tmp_path, text):
        # the root of the Hensel tree is over budget before any allocation
        pf = poly_file(text)
        code, rep = run_json(
            ["local", "--poly", pf, "--p", "10000000000000061"], tmp_path)
        assert code == 1
        assert rep["flags"] == ["budget"]
        assert rep["result"]["partial_sums"] == []


    def test_sobol_unbalanced(self, poly_file, tmp_path):
        # 1000 / 8 points per replicate is not a power of two
        pf = poly_file("n=2\n1 2 0\n1 0 2\n")       # x1^2 + x2^2
        for argv in (["sigma-inf"], ["predict", "--N", "20"]):
            argv = argv + ["--poly", pf, "--box-points"]
            code, rep = run_json(argv + ["1000"], tmp_path)
            assert code == 1
            assert "sobol_unbalanced" in rep["flags"]
            _, rep = run_json(argv + ["1024"], tmp_path)
            assert "sobol_unbalanced" not in rep["flags"]

    def test_flags_sorted_and_unique(self, tmp_path):
        # every flags list in the result, at any depth, joins the report's
        out = tmp_path / "out.json"
        result = {"estimates": [{"flags": ("zero_measure", "nonconvergent")},
                                {"flags": ["zero_measure"]}],
                  "clean": {"flags": ()}}
        code = cli._emit(argparse.Namespace(output=str(out)), "sigma-inf",
                         None, {}, result, 0.0)
        assert code == 1
        rep = json.loads(out.read_text())
        assert rep["flags"] == ["nonconvergent", "zero_measure"]
        assert rep["result"]["estimates"][0]["flags"] == [
            "zero_measure", "nonconvergent"]


def _made_up(result):
    """result with the flag ``made_up`` raised as well."""
    return replace(result, flags=result.flags + ("made_up",))


class TestEveryFlagCarrier:
    """A flag any result raises reaches the report's flags and exit code 1,
    whatever its name."""

    PREDICT = ["predict", "--N", "20", "--prime-bound", "5",
               "--box-points", "1024"]

    @pytest.mark.parametrize("module, name, argv, text", [
        (local, "mu_p", ["local", "--p", "5"], LINEAR6),
        (local, "mu_p", ["series", "--prime-bound", "5"], LINEAR6),
        (local, "mu_p", PREDICT, LINEAR6),
        (arch, "sigma_scaled", PREDICT, LINEAR6),
        (count, "regularity_exponent",
         ["regularity", "--N-list", "2", "--N-list", "3", "--N-list", "4"],
         SQUARES3),
    ], ids=["local", "series", "predict-factor", "predict-sigma",
            "regularity"])
    def test_injected_flag(self, module, name, argv, text, poly_file,
                           tmp_path, monkeypatch):
        argv = argv[:1] + ["--poly", poly_file(text)] + argv[1:]
        assert run_json(argv, tmp_path) == (0, ANY)
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: _made_up(fn(*a, **k)))
        code, rep = run_json(argv, tmp_path)
        assert code == 1
        assert rep["flags"] == ["made_up"]

    @pytest.mark.parametrize("which", [0, 1])
    def test_injected_sigma_infinity_flag(self, which, poly_file, tmp_path,
                                          monkeypatch):
        # one flag on the quadrature estimate (0) or on the measure (1)
        argv = ["sigma-inf", "--poly", poly_file(SQUARES3),
                "--box-points", "1024"]
        assert run_json(argv, tmp_path) == (0, ANY)
        fn = arch.sigma_infinity

        def flagged(*args):
            out = list(fn(*args))
            out[which] = _made_up(out[which])
            return tuple(out)
        monkeypatch.setattr(arch, "sigma_infinity", flagged)
        code, rep = run_json(argv, tmp_path)
        assert code == 1
        assert rep["flags"] == ["made_up"]


def test_cli_import_skips_heavy_modules(poly_file, tmp_path):
    # sympy and scipy.stats cost over a second of start-up per job; neither
    # the import nor a sigma-inf, predict or hinv job may load them
    src = str(Path(cli.__file__).resolve().parents[1])
    sq, lin = poly_file(SQUARES3, "sq.txt"), poly_file(LINEAR6, "lin.txt")
    jobs = [["sigma-inf", "--poly", sq, "--box-points", "1024"],
            ["predict", "--poly", lin, "--N", "20", "--prime-bound", "10",
             "--box-points", "1024", "--ground-truth"],
            ["hinv", "--poly", sq]]
    jobs = [job + ["--output", str(tmp_path / "out.json")] for job in jobs]
    code = ("import sys; from circlekit.cli import main; "
            "heavy = lambda: sorted({'sympy', 'scipy.stats'} & sys.modules.keys()); "
            f"print(heavy(), [main(job) for job in {jobs!r}], heavy())")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "[] [0, 0, 0] []"


def _loaded_after(code, tmp_path):
    """The circlekit modules, and numpy if loaded, in sys.modules after
    ``code`` runs in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    seen = tmp_path / "modules.json"
    code += (f"\nimport json, sys\nopen({str(seen)!r}, 'w').write(json.dumps("
             "[m for m in sys.modules if m == 'numpy' "
             "or m.startswith('circlekit')]))")
    subprocess.run([sys.executable, "-c", code], capture_output=True,
                   env=dict(os.environ, PYTHONPATH=src), timeout=120,
                   check=True)
    return set(json.loads(seen.read_text()))


# what each job imports: numpy only where it computes with arrays, and
# no module of another subcommand.  series, regularity and weyl-scan
# enumerate less than poly._SMALL_STEPS here, in Python integers; local's
# 3 x1 + 3 x2 - 18 at p = 3 still walks its singular zeros in numpy
_BASE = {"circlekit", "circlekit.cli"}
_IMPORTS = {
    "--version": set(),
    "--help": set(),
    "frobnicate": set(),        # an unknown command: a usage error
    "hinv": {"hinv", "primes", "poly"},
    "gm-split": {"hinv", "primes", "poly"},
    "arcs": {"arcs", "poly"},
    "local": {"local", "primes", "poly", "numpy"},
    "series": {"local", "primes", "poly"},
    "sigma-inf": {"arch", "poly", "numpy"},
    "count": {"count", "primes", "poly"},
    "regularity": {"count", "primes", "poly"},
    "weyl-scan": {"arcs", "count", "primes", "poly"},
    "zcount": {"arcs", "poly"},
    "predict": {"count", "local", "primes", "arch", "poly", "numpy"},
}


@pytest.mark.parametrize("command", sorted(_IMPORTS))
def test_each_command_imports_only_what_it_runs(command, poly_file,
                                                 tmp_path):
    sq, lin = poly_file(SQUARES3, "sq.txt"), poly_file(LINEAR6, "lin.txt")
    lin18 = poly_file(LINEAR18, "lin18.txt")
    hyp = poly_file("n=4\n1 1 1 0 0\n1 0 0 1 1\n", "hyp.txt")
    dec = poly_file("n=4\n1 1 0 0 0\n---\nn=4\n1 0 1 0 0\n---\n"
                    "n=4\n1 0 0 1 0\n---\nn=4\n1 0 0 0 1\n", "dec.txt")
    args = {
        "hinv": ["--poly", sq],
        "gm-split": ["--poly", hyp, "--dec", dec, "--M", "1"],
        "arcs": ["--N", "100", "--d", "2"],
        "local": ["--poly", lin18, "--p", "3"],
        "series": ["--poly", lin, "--prime-bound", "10"],
        "sigma-inf": ["--poly", sq, "--box-points", "1024"],
        "count": ["--poly", lin, "--N", "20"],
        "regularity": ["--poly", lin, "--N-list", "2", "--N-list", "3",
                       "--N-list", "4"],
        "weyl-scan": ["--poly", lin, "--N", "20", "--points", "4"],
        "zcount": ["--poly", sq, "--R", "1"],
        "predict": ["--poly", lin, "--N", "20", "--prime-bound", "10",
                    "--box-points", "1024"],
    }.get(command)
    argv = [command] + (args + ["--output", str(tmp_path / "out")]
                        if args else [])
    code = (f"from circlekit.cli import main\ntry:\n    main({argv!r})\n"
            "except SystemExit:\n    pass")
    want = _BASE | {m if m == "numpy" else f"circlekit.{m}"
                    for m in _IMPORTS[command]}
    assert _loaded_after(code, tmp_path) == want


@pytest.mark.parametrize("argv", [
    ["local", "--p", "7"], ["series", "--prime-bound", "10"]],
    ids=["local", "series"])
def test_closed_form_factors_load_no_numpy(argv, poly_file, tmp_path):
    # x1^2 + x2^2 + x3^2 at p = 7 and x1 x2 - x3^2 at every p <= 10 are read
    # from Legendre-symbol counts, and the sieve and the tail fit are pure
    # Python
    text = SQUARES3 if argv[0] == "local" else "n=3\n1 1 1 0\n-1 0 0 2\n"
    out = tmp_path / "out.json"
    argv = [argv[0], "--poly", poly_file(text), *argv[1:],
            "--output", str(out)]
    code = f"from circlekit.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(code, tmp_path) == \
        _BASE | {"circlekit.local", "circlekit.primes", "circlekit.poly"}
    factors = json.loads(out.read_text())["result"]
    factors = factors.get("factors", [factors])
    assert {f["method"] for f in factors if f["p"] > 2} == {"quadratic_form"}


@pytest.mark.parametrize("argv, modules", [
    (["sigma-inf"], {"arch", "poly"}),
    (["count", "--N", "1500"], {"count", "primes", "poly"})],
    ids=["sigma-inf", "count"])
def test_cone_jobs_load_no_numpy(argv, modules, poly_file, tmp_path):
    # the cone is of degree one in x1: its singular integral is the fibre
    # integral and its count solves for x1 in Python integers
    out = tmp_path / "out.json"
    argv = [argv[0], "--poly", poly_file("n=3\n1 1 1 0\n-1 0 0 2\n"),
            *argv[1:], "--output", str(out)]
    code = f"from circlekit.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(code, tmp_path) == \
        _BASE | {f"circlekit.{m}" for m in modules}
    result = json.loads(out.read_text())["result"]
    if argv[0] == "count":
        assert (result["solution_count"], result["value"]) == \
            (327, 60729.88372867206)
    else:
        assert [result[k]["method"] for k in ("quadrature", "measure")] == \
            ["fibre", "fibre"]


FIVE_SQUARES = ("n=5\n1 2 0 0 0 0\n1 0 2 0 0 0\n1 0 0 2 0 0\n1 0 0 0 2 0\n"
                "1 0 0 0 0 2\n-12005 0 0 0 0 0\n")


@pytest.mark.parametrize("argv, text, modules", [
    (["series", "--prime-bound", "200"], FIVE_SQUARES,
     {"local", "primes", "poly"}),
    (["weyl-scan", "--N", "200", "--points", "16"], "n=3\n1 1 1 0\n-1 0 0 2\n",
     {"arcs", "count", "primes", "poly"}),
    (["weyl-scan", "--N", "20", "--points", "4"], FIVE_SQUARES,
     {"arcs", "count", "primes", "poly"}),
    (["regularity", "--N-list", "5", "--N-list", "10", "--N-list", "20"],
     "n=2\n1 2 0\n1 0 2\n-5 0 0\n", {"count", "primes", "poly"})],
    ids=["five-squares-series", "cone-weyl-scan", "five-squares-weyl-scan",
         "regularity"])
def test_small_enumerations_load_no_numpy(argv, text, modules, poly_file,
                                          tmp_path):
    # five squares' factor at 2 is read from b(1, ..., 1) mod 8, and the
    # scans' histograms and sums and the regularity grids cost less than
    # poly._SMALL_STEPS, so they run in Python integers
    out = tmp_path / "out"
    argv = [argv[0], "--poly", poly_file(text), *argv[1:],
            "--output", str(out)]
    code = f"from circlekit.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(code, tmp_path) == \
        _BASE | {f"circlekit.{m}" for m in modules}
    if argv[0] == "weyl-scan":
        points = int(argv[argv.index("--points") + 1])
        assert len(out.read_text().splitlines()) == points + 1
        return
    result = json.loads(out.read_text())["result"]
    if argv[0] == "regularity":
        assert result["counts"] == [8, 8, 8]
    else:
        assert [(f["p"], f["mu_p"], f["method"])
                for f in result["factors"][:1]] == \
            [(2, "8/1", "dyadic_quadratic")]


def test_package_import_loads_no_submodule(tmp_path):
    assert _loaded_after("import circlekit", tmp_path) == {"circlekit"}


def test_former_exports_resolve():
    import circlekit
    for name in (
            "Polynomial grid_blocks load_polynomial parse_polynomial "
            "weyl_difference weyl_difference_poly Decomposition "
            "QuadraticFormData build_gm_fm hilbert_symbol lemma21_check "
            "linear_count quadratic_h verify_decomposition witt_index B_of_q "
            "LocalFactor SeriesEstimate mu_p nu_count singular_series "
            "unit_exp_sum value_histogram QuadratureSpec "
            "SingularIntegralEstimate I_eta J_of_L mu_infinity "
            "real_nonsingular_witness sigma_infinity sigma_measure "
            "sigma_scaled ArcDissection RationalFreq WeylReport E_normalized "
            "S_sum T_sum build_arcs classify_alpha estimate_gd "
            "z_count CountResult MangoldtTable PredictionReport "
            "RegularityReport count_direct count_mitm count_via_histogram "
            "mangoldt_table predict regularity_exponent").split():
        value = getattr(circlekit, name)
        assert getattr(sys.modules[value.__module__], name) is value
        assert name in dir(circlekit)
    with pytest.raises(AttributeError):
        circlekit.padic_nonsingular_witness


class TestConfigFile:
    def test_config_value_applies(self, poly_file, tmp_path):
        pf = poly_file(LINEAR6)
        cfg = tmp_path / "cfg"
        cfg.write_text("tmax = 2\n# comment line\n")
        _, rep = run_json(
            ["local", "--poly", pf, "--p", "3", "--config", str(cfg)],
            tmp_path)
        assert rep["config"]["tmax"] == 2

    def test_explicit_flag_wins(self, poly_file, tmp_path):
        pf = poly_file(LINEAR6)
        cfg = tmp_path / "cfg"
        cfg.write_text("tmax=2\n")
        _, rep = run_json(
            ["local", "--poly", pf, "--p", "3", "--tmax", "4",
             "--config", str(cfg)], tmp_path)
        assert rep["config"]["tmax"] == 4

    def test_abbreviated_flag_wins(self, poly_file, tmp_path):
        pf = poly_file(LINEAR6)
        cfg = tmp_path / "cfg"
        cfg.write_text("tmax=2\n")
        _, rep = run_json(
            ["local", "--poly", pf, "--p", "3", "--tm", "4",
             "--config", str(cfg)], tmp_path)
        assert rep["config"]["tmax"] == 4

    def test_value_takes_the_option_type(self, poly_file, tmp_path):
        # split has no default, so its value must be typed by the parser
        pf = poly_file(LINEAR6)
        cfg = tmp_path / "cfg"
        cfg.write_text("split = 1\n")
        code, rep = run_json(
            ["count", "--poly", pf, "--N", "5", "--strategy", "mitm",
             "--config", str(cfg)], tmp_path)
        assert code == 0
        assert rep["config"]["split"] == 1
        assert rep["result"]["solution_count"] == 3

    @pytest.mark.parametrize("value, on", [("yes", True), ("true", True),
                                           ("1", True), ("no", False)])
    def test_switch_value(self, poly_file, tmp_path, value, on):
        pf = poly_file(LINEAR6)
        cfg = tmp_path / "cfg"
        cfg.write_text(f"primes_only = {value}\n")
        code, rep = run_json(
            ["count", "--poly", pf, "--N", "5", "--config", str(cfg)],
            tmp_path)
        assert code == 0
        assert rep["config"]["primes_only"] is on
        assert ("primes_only_value" in rep["result"]) is on

    def test_ground_truth_switch(self, poly_file, tmp_path):
        pf = poly_file(LINEAR6)
        cfg = tmp_path / "cfg"
        cfg.write_text("ground_truth = true\n")
        _, rep = run_json(
            ["predict", "--poly", pf, "--N", "5", "--prime-bound", "5",
             "--box-points", "1024", "--config", str(cfg)], tmp_path)
        assert rep["config"]["ground_truth"] is True
        assert rep["result"]["ground_truth"]["solution_count"] == 3

    @pytest.mark.parametrize("line", ["split = one", "strategy = fast"])
    def test_bad_value_is_usage_error(self, poly_file, tmp_path, line):
        pf = poly_file(LINEAR6)
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["count", "--poly", pf, "--N", "5", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_bad_line_is_usage_error(self, poly_file, tmp_path):
        pf = poly_file(LINEAR6)
        cfg = tmp_path / "cfg"
        cfg.write_text("tmax 2\n")
        assert main(["local", "--poly", pf, "--p", "3",
                     "--config", str(cfg)]) == 2


class TestSubcommands:
    def test_arcs_centers(self, tmp_path):
        code, rep = run_json(["arcs", "--N", "100", "--C", "1", "--d", "2"],
                             tmp_path)
        assert code == 0
        got = {(c["m"], c["q"]) for c in rep["result"]["centers"]}
        assert got == {(0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4)}

    def test_arcs_without_a_center_is_usage_error(self, tmp_path, capsys):
        # (log 100)^-1 < 1: no denominator q >= 1 fits
        out = tmp_path / "arcs.json"
        assert main(["arcs", "--N", "100", "--d", "2", "--C", "-1",
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_hinv_three_squares(self, poly_file, tmp_path):
        pf = poly_file(SQUARES3)
        code, rep = run_json(["hinv", "--poly", pf], tmp_path)
        assert code == 0
        assert rep["result"]["h_value"] == 3
        assert rep["result"]["rank"] == 3

    def test_weyl_scan_csv(self, poly_file, tmp_path):
        pf = poly_file("n=1\n1 1\n")
        out = tmp_path / "scan.csv"
        code = main(["weyl-scan", "--poly", pf, "--N", "10",
                     "--points", "8", "--Delta", "1.2",
                     "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,re_T,im_T,abs_T,classification"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert first[4] == "0/1"

    def test_weyl_scan_without_points_is_usage_error(self, poly_file,
                                                     tmp_path, capsys):
        pf = poly_file("n=1\n1 1\n")
        out = tmp_path / "scan.csv"
        assert main(["weyl-scan", "--poly", pf, "--N", "10", "--points", "0",
                     "--output", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_weyl_scan_at_N_zero_is_usage_error(self, poly_file, tmp_path,
                                                capfd):
        # P = N = 0 has no threshold P^(Delta - d); no CSV is written
        out = tmp_path / "scan.csv"
        assert main(["weyl-scan", "--poly", poly_file(LINEAR6), "--N", "0",
                     "--output", str(out)]) == 2
        assert capfd.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["zcount", "--R", "-1"], "R = -1"),
        (["zcount", "--R", "0", "--R", "1", "--R", "2"], "got [0, 1, 2]"),
        (["regularity", "--N-list", "0", "--N-list", "1", "--N-list", "2"],
         "got [0, 1, 2]")])
    def test_bad_radius_or_scale_is_usage_error(self, argv, named, poly_file,
                                                tmp_path, capfd):
        # refused by name before any count, not fitted as log 0 (which
        # made LAPACK print DLASCL errors at the C level)
        out = tmp_path / "out.json"
        assert main([argv[0], "--poly", poly_file("n=2\n1 1 1\n"),
                     *argv[1:], "--output", str(out)]) == 2
        captured = capfd.readouterr()
        assert captured.err.startswith("error: ")
        assert named in captured.err
        assert "DLASCL" not in captured.err + captured.out
        assert not out.exists()

    @pytest.mark.parametrize("C", ["1000", "nan", "inf"])
    def test_arcs_bad_C_is_usage_error(self, C, tmp_path, capfd):
        # (log 10^6)^1000 overflows a float; nan and inf are no exponent
        out = tmp_path / "out.json"
        assert main(["arcs", "--N", "1000000", f"--C={C}", "--d", "2",
                     "--output", str(out)]) == 2
        captured = capfd.readouterr()
        assert captured.err.startswith("error: ")
        assert "N=1000000" in captured.err and f"C={float(C)}" in \
            captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_zcount_charges_what_it_walks(self, poly_file, tmp_path):
        # x1 x2 + x3 x4 has a trivial kernel: one point walked at R = 50,
        # where the whole grid of 101^4 tuples is over budget
        pf = poly_file("n=4\n1 1 1 0 0\n1 0 0 1 1\n")
        code, rep = run_json(["zcount", "--poly", pf, "--R", "50"], tmp_path)
        assert code == 0
        assert rep["result"]["z_counts"] == [1]

    def test_zcount_growth_fit(self, poly_file, tmp_path):
        pf = poly_file("n=2\n1 2 0\n")
        code, rep = run_json(
            ["zcount", "--poly", pf, "--R", "5", "--R", "10", "--R", "20",
             "--R", "40"], tmp_path)
        assert code == 0
        assert abs(rep["result"]["fitted_gd"] - 1) < 0.15

    def test_zcount_raw_counts(self, poly_file, tmp_path):
        pf = poly_file("n=2\n1 2 0\n")
        _, rep = run_json(["zcount", "--poly", pf, "--R", "5"], tmp_path)
        assert rep["result"]["z_counts"] == [11]

    def test_predict_report_has_factors_not_solutions(self, poly_file,
                                                      tmp_path):
        pf = poly_file(LINEAR6)
        _, rep = run_json(
            ["predict", "--poly", pf, "--N", "20", "--prime-bound", "10",
             "--box-points", str(1 << 14), "--ground-truth"], tmp_path)
        res = rep["result"]
        assert [f["p"] for f in res["factors"]] == [2, 3, 5, 7]
        assert all({"mu_p", "partial_sums"} <= set(f) for f in res["factors"])
        assert res["ground_truth"]["solution_count"] > 0
        assert "solutions" not in res["ground_truth"]

    @pytest.mark.parametrize("command", [["count"],
                                         ["weyl-scan", "--points", "4"]])
    def test_huge_N_is_usage_error(self, command, poly_file, tmp_path,
                                   capsys):
        # the von Mangoldt table's 10^11 + 1 entries are refused, not
        # allocated until numpy fails
        out = tmp_path / "out.json"
        code = main([command[0], "--poly", poly_file(LINEAR6),
                     "--N", "100000000000", *command[1:],
                     "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("text, argv, named", [
        (None, ["arcs", "--N", "1000000", "--C", "10", "--d", "2"],
         "arc centres"),
        ("n=3\n1 1 1 0\n-1 0 0 2\n",
         ["series", "--prime-bound", "10000000000"], "sieve to"),
        (SQUARES3, ["sigma-inf", "--box-points", "8000000000"],
         "Sobol replicate"),
        ("n=2\n1 2 0\n1 0 2\n-5 0 0\n",
         ["regularity", "--N-list", "5", "--N-list", "5", "--N-list", "5"],
         "got [5, 5, 5]"),
        (LINEAR6, ["sigma-inf", "--eta-L", "nan"], "finite"),
        (LINEAR6, ["sigma-inf", "--eta-L", "inf"], "finite"),
        (LINEAR6, ["sigma-inf", "--eps", "nan"], "finite"),
        (LINEAR6, ["sigma-inf", "--eps", "inf"], "finite"),
        (LINEAR6, ["predict", "--N", "20", "--eps", "nan"], "finite"),
    ], ids=["arc-centres", "sieve", "sobol", "repeated-scale", "eta-L-nan",
            "eta-L-inf", "eps-nan", "eps-inf", "predict-eps-nan"])
    def test_refused_before_any_work(self, text, argv, named, poly_file,
                                     tmp_path, capfd):
        # over budget (3 * 10^22 arc centres, a sieve of 9.3 GiB, Sobol
        # samples of 12 GiB), one distinct scale, or a non-finite
        # quadrature parameter: refused by name with exit 2, with no
        # traceback, warning or report
        out = tmp_path / "out.json"
        poly = [] if text is None else ["--poly", poly_file(text)]
        assert main([argv[0], *poly, *argv[1:], "--output", str(out)]) == 2
        captured = capfd.readouterr()
        assert captured.err.startswith("error: ")
        assert named in captured.err
        assert "Warning" not in captured.err
        assert not out.exists()

    def test_count_primes_only_variant(self, poly_file, tmp_path):
        pf = poly_file(LINEAR6)
        _, rep = run_json(
            ["count", "--poly", pf, "--N", "5", "--primes-only"], tmp_path)
        res = rep["result"]
        assert res["primes_only_solutions"] == 1    # only (3, 3)
        assert res["primes_only_value"] == pytest.approx(math.log(3) ** 2)
        assert res["full"]["solution_count"] == 3

    def test_count_reports_its_method(self, poly_file, tmp_path):
        _, rep = run_json(["count", "--poly", poly_file(LINEAR6), "--N", "5"],
                          tmp_path)
        assert rep["result"]["method"] == "separable"
        pf = poly_file("n=3\n1 1 1 0\n-1 0 0 2\n", "cone.txt")   # x1 x2 - x3^2
        _, rep = run_json(["count", "--poly", pf, "--N", "50",
                           "--primes-only"], tmp_path)
        assert rep["result"]["full"]["method"] == "linear(x_1)"
        assert rep["result"]["full"]["solution_count"] == 33

    def test_regularity_flags_product_form(self, poly_file, tmp_path):
        pf = poly_file("n=2\n1 1 1\n")
        code, rep = run_json(
            ["regularity", "--poly", pf, "--N-list", "5", "--N-list", "10",
             "--N-list", "20"], tmp_path)
        assert code == 1
        assert "not_regular" in rep["flags"]

    def test_budget_exceeded_is_usage_error(self, poly_file, capsys):
        pf = poly_file("n=2\n1 2 0\n1 0 2\n")
        code = main(["regularity", "--poly", pf, "--N-list", "5000",
                     "--N-list", "6000", "--N-list", "7000"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestGmSplit:
    def test_split_of_hyperbolic_pair(self, poly_file, tmp_path):
        pf = poly_file("n=4\n1 1 1 0 0\n1 0 0 1 1\n")
        dec = tmp_path / "dec.txt"
        dec.write_text(
            "n=4\n1 1 0 0 0\n"
            "---\n"
            "n=4\n1 0 1 0 0\n"
            "---\n"
            "n=4\n1 0 0 1 0\n"
            "---\n"
            "n=4\n1 0 0 0 1\n")
        code, rep = run_json(
            ["gm-split", "--poly", pf, "--dec", str(dec), "--M", "1"],
            tmp_path)
        assert code == 0
        g = parse_polynomial(rep["result"]["g_M"])
        f_m = parse_polynomial(rep["result"]["f_M"])
        total = g + f_m
        target = parse_polynomial("n=4\n1 1 1 0 0\n1 0 0 1 1\n")
        assert (total - target).is_zero()
        assert f_m.evaluate((1, 1, 0, 0)) == 0     # x1 eliminated

    def test_odd_block_count_is_usage_error(self, poly_file, tmp_path):
        pf = poly_file("n=4\n1 1 1 0 0\n1 0 0 1 1\n")
        dec = tmp_path / "dec.txt"
        dec.write_text("n=4\n1 1 0 0 0\n")
        assert main(["gm-split", "--poly", pf, "--dec", str(dec),
                     "--M", "1"]) == 2
