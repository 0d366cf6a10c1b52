import io
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import pentagramma
from battery_outcomes import CRITERION_8_FAILING
from pentagramma import (cli, elliptic_kernel, errors, napier_uniformization, oracles,
                         pentagram_algebra, poncelet, verify)
from pentagramma.cli import main


def run_cli(argv):
    buffer = io.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


def assert_error_document(output, command, error, stderr_text):
    """The one-line JSON error document of a --json run; its message is the stderr text's."""
    assert output.endswith("\n") and output.count("\n") == 1
    doc = json.loads(output)
    assert list(doc) == sorted(doc)
    assert (doc["command"], doc["error"], doc["status"]) == (command, error, "error")
    assert stderr_text.endswith(f": {doc['message']}\n")
    return doc


def failing_checks(doc):
    return [name for name, rec in doc["residuals"].items()
            if not isinstance(rec["value"], (int, float)) or rec["value"] > rec["tol"]]


def assert_statuses_follow_checks(doc):
    failing = {name[:2] for name in failing_checks(doc)}
    assert doc["outputs"] == {f"criterion_{n:02d}": "fail" if f"{n:02d}" in failing else "pass"
                              for n in range(1, 11)}


class TestPentagram:
    def test_gauss_example_values(self):
        code, output = run_cli(["pentagram", "--alpha", "9", "--gamma", "2",
                                "--json"])
        assert code == 0
        doc = json.loads(output)
        assert doc["status"] == "pass"
        assert doc["outputs"]["alphas"] == pytest.approx(
            [9, 2 / 3, 2, 5, 1 / 3], abs=1e-14)
        assert doc["outputs"]["omega"] == pytest.approx(20.0, abs=1e-13)
        roots = doc["outputs"]["roots"]
        assert (roots["G"], roots["Gp"], roots["Gpp"]) == pytest.approx(
            (-2.197, 1.069, 2.128), abs=2e-3)
        # vertex orthogonality is build_sphere_vertices' own bound, raised above when made
        assert set(doc["residuals"]) == {"cycle_law", "invariant_sum", "invariant_sqrt",
                                         "root_products"}

    def test_near_critical_warning(self):
        code, output = run_cli(["pentagram", "--alpha", "1.618033",
                                "--gamma", "1.618033", "--json"])
        assert code == 0
        doc = json.loads(output)
        assert doc["warnings"]
        assert doc["outputs"]["modulus"] < 0.01

    def test_domain_exit_code(self):
        code, _ = run_cli(["pentagram", "--alpha", "-1", "--gamma", "2"])
        assert code == 2

    def test_omega_beyond_top_names_the_bound(self, capsys):
        # omega = 2e8: a genuine pentagon whose modulus rounds to 1
        code, output = run_cli(["pentagram", "--alpha", "1e8", "--gamma", "1e8", "--json"])
        assert code == 2
        message = capsys.readouterr().err
        assert "OMEGA_MAX" in message and "MAX_MODULUS" in message
        assert_error_document(output, "pentagram", "DomainError", message)


class TestNapier:
    def test_single_run(self):
        code, output = run_cli(["napier", "--k", "0.5", "--u", "0.3", "--json"])
        assert code == 0
        doc = json.loads(output)
        assert doc["status"] == "pass"
        assert len(doc["outputs"]["alphas"]) == 5
        assert all(v[2] == 1.0 for v in doc["outputs"]["vectors"])

    def test_regular_run(self):
        code, output = run_cli(["napier", "--k", "0", "--u", "0", "--json"])
        assert code == 0
        doc = json.loads(output)
        golden = (1 + math.sqrt(5)) / 2
        assert doc["outputs"]["alphas"] == pytest.approx([golden] * 5, abs=1e-12)

    def test_bad_modulus(self):
        code, _ = run_cli(["napier", "--k", "1.5", "--u", "0"])
        assert code == 2

    def test_law_scaled_near_unit_modulus(self):
        # alphas reach ~9e3 here: 1 + a_j - a_{j-2} a_{j+2} is ~1e-7 in
        # absolute terms but ~1e-11 relative to 1 + a_j
        code, output = run_cli(["napier", "--k", "0.999999999", "--u", "0.3",
                                "--json"])
        assert code == 0
        doc = json.loads(output)
        assert doc["status"] == "pass"
        assert max(doc["outputs"]["alphas"]) > 1e3
        assert doc["residuals"]["pentagon_law"]["value"] < 1e-10

    def test_grid_csv(self, tmp_path):
        target = tmp_path / "sweep.csv"
        code, _ = run_cli(["napier", "--grid", "--samples", "4",
                           "--csv", str(target)])
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0].startswith("k,u,alpha_0")
        assert len(lines) == 1 + 10 * 4

    def test_grid_stdout_matches_csv_file(self, tmp_path):
        target = tmp_path / "sweep.csv"
        code, written = run_cli(["napier", "--grid", "--samples", "3", "--seed", "5",
                                 "--csv", str(target)])
        assert (code, written) == (0, f"wrote 30 rows to {target}\n")
        code, streamed = run_cli(["napier", "--grid", "--samples", "3", "--seed", "5"])
        assert code == 0
        assert target.read_bytes() == streamed.encode("utf-8")

    def test_grid_zero_samples_header_only(self, tmp_path):
        header = ("k,u,alpha_0,alpha_1,alpha_2,alpha_3,alpha_4,beta_0,beta_1,beta_2,"
                  "beta_3,beta_4,law_residual,five_term_residual\n")
        assert run_cli(["napier", "--grid", "--samples", "0"]) == (0, header)
        target = tmp_path / "empty.csv"
        code, written = run_cli(["napier", "--grid", "--samples", "0", "--csv", str(target)])
        assert (code, written) == (0, f"wrote 0 rows to {target}\n")
        assert target.read_text() == header

    def test_grid_k_column_is_the_library_grid(self):
        code, output = run_cli(["napier", "--grid", "--samples", "2"])
        assert code == 0
        ks = [float(line.split(",")[0]) for line in output.splitlines()[1:]]
        assert ks == [k for k in napier_uniformization.K_GRID for _ in range(2)]

    def test_grid_deterministic(self):
        _, first = run_cli(["napier", "--grid", "--samples", "3"])
        _, second = run_cli(["napier", "--grid", "--samples", "3"])
        assert first == second

    def test_svg(self, tmp_path):
        target = tmp_path / "pentagon.svg"
        code, _ = run_cli(["napier", "--k", "0.4", "--u", "0.2",
                           "--svg", str(target)])
        assert code == 0
        root = ET.parse(target).getroot()
        assert root.tag.endswith("svg")
        body = target.read_text()
        assert "<ellipse" in body and "<polyline" in body

    def test_grid_refuses_svg(self, tmp_path, capsys):
        # the grid writes CSV only; a drawing asked of it is refused, not dropped
        target = tmp_path / "pentagon.svg"
        with pytest.raises(SystemExit) as info:
            run_cli(["napier", "--grid", "--svg", str(target)])
        assert info.value.code == 2
        message = capsys.readouterr().err
        assert "argument --svg: not allowed with argument --grid" in message
        assert not target.exists()


class TestBridge:
    def test_from_omega(self):
        argv = ["bridge", "--omega", "20", "--json"]
        code, output = run_cli(argv)
        assert code == 0
        doc = json.loads(output)
        assert doc["status"] == "pass"
        assert doc["residuals"]["cn_bridge"]["value"] < 1e-9
        # the same run as a module entry point
        src = os.path.dirname(os.path.dirname(os.path.abspath(pentagramma.__file__)))
        done = subprocess.run([sys.executable, "-m", "pentagramma.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (0, output), done.stderr

    def test_from_k(self):
        code, output = run_cli(["bridge", "--k", "0.3", "--json"])
        assert code == 0
        assert json.loads(output)["status"] == "pass"

    def test_subcritical_exit(self):
        code, _ = run_cli(["bridge", "--omega", "5"])
        assert code == 4

    def test_k_near_one(self):
        code, output = run_cli(["bridge", "--k", "0.9999999", "--json"])
        assert code == 0
        assert json.loads(output)["residuals"]["k_roundtrip"]["value"] == 0.0

    @pytest.mark.parametrize("omega", ["1e6", "1e12"])
    def test_omega_beyond_top_names_the_bound(self, omega, capsys):
        code, output = run_cli(["bridge", "--omega", omega, "--json"])
        assert code == 2
        message = capsys.readouterr().err
        assert f"omega={float(omega)!r}" in message and "MAX_MODULUS" in message
        doc = assert_error_document(output, "bridge", "DomainError", message)
        assert doc["inputs"] == {"omega": float(omega)}


class TestPoncelet:
    def test_report_candidates(self):
        code, output = run_cli(["poncelet", "--R", "1", "--r", "0.5",
                                "--a", "0.2", "--json"])
        assert code == 0
        doc = json.loads(output)
        assert doc["status"] == "pass"
        assert "5/2" in doc["outputs"]["closure_residuals"]
        # the modulus consistency is the config's own bound, raised above when made
        assert doc["residuals"] == {}

    def test_concentric_closure_listed(self):
        code, output = run_cli(["poncelet", "--R", "1", "--r",
                                str(math.cos(2 * math.pi / 5)), "--a", "0",
                                "--json"])
        assert code == 0
        doc = json.loads(output)
        assert abs(doc["outputs"]["closure_residuals"]["5/2"]) < 1e-15

    @pytest.mark.parametrize("a", ["0.1", "0"])
    def test_solve_refuses_centre_distance(self, a, capsys):
        # --solve searches the centre distance; a given --a is refused, not dropped
        with pytest.raises(SystemExit) as info:
            run_cli(["poncelet", "--R", "1", "--r", "0.3", "--a", a, "--solve", "5", "2"])
        assert info.value.code == 2
        assert "argument --a: not allowed with argument --solve" in capsys.readouterr().err

    def test_solve_star(self):
        code, output = run_cli(["poncelet", "--R", "1", "--r", "0.3",
                                "--solve", "5", "2", "--json"])
        assert code == 0
        doc = json.loads(output)
        assert doc["status"] == "pass"
        assert doc["residuals"]["porism_closure"]["value"] < 1e-8
        # the porism holds from every start, so it is checked from five fixed ones
        config = poncelet.search_closing_config(5, 2, 1.0, 0.3)
        starts = [j * math.pi / 5 for j in range(5)]
        assert doc["residuals"]["porism_closure"]["value"] == poncelet.porism_residual(
            config, 5, 2, starts)

    def test_invalid_nesting_exit(self):
        code, _ = run_cli(["poncelet", "--R", "1", "--r", "0.5", "--a", "0.6"])
        assert code == 2

    @pytest.mark.parametrize("argv, named", [
        (["--R", "nan", "--r", "0.3", "--a", "0.1"], "R=nan"),
        (["--R", "1", "--r", "nan", "--solve", "5", "2"], "r=nan"),
        (["--R", "1", "--r", "0.5", "--a", "0.2", "--phi0", "nan", "--csv"], "phi0=nan")])
    def test_non_finite_input_named(self, argv, named, tmp_path, capsys):
        target = tmp_path / "walk.csv"
        argv = argv + [str(target)] if argv[-1] == "--csv" else argv
        code, output = run_cli(["poncelet", *argv])
        assert (code, output) == (2, "")
        assert named in capsys.readouterr().err
        assert not target.exists()

    def test_near_tangent_pair_names_the_bound(self, capsys):
        # nested, but k^2 = 4Ra/((R+a)^2 - r^2) rounds to 1
        code, output = run_cli(["poncelet", "--R", "1", "--r", "0.7631943040467181",
                                "--a", "0.23680569595328171", "--json"])
        assert code == 2
        doc = assert_error_document(output, "poncelet", "DomainError", capsys.readouterr().err)
        assert doc["message"] == ("modulus k=1.0 exceeds MAX_MODULUS = 0.999999999999: "
                                  "a + r = 0.9999999999999998 is too close to R = 1.0 "
                                  "(tangency) for the kernel")

    def test_search_failure_exit(self, capsys):
        code, _ = run_cli(["poncelet", "--R", "1", "--r", "0.4",
                           "--solve", "5", "2"])
        assert code == 5
        assert "concentric limit R cos(pi m/n) = 0.30901699437494745" in capsys.readouterr().err

    def test_half_turn_walk_names_its_bound(self, capsys):
        code, output = run_cli(["poncelet", "--R", "1", "--r", "0.3", "--solve", "5", "4"])
        assert (code, output) == (5, "")
        err = capsys.readouterr().err
        assert "F(alpha)/2K is below 1/2" in err and "(5, 1)" in err

    def test_svg_and_csv(self, tmp_path):
        svg = tmp_path / "walk.svg"
        csv_file = tmp_path / "walk.csv"
        code, _ = run_cli(["poncelet", "--R", "1", "--r", "0.3",
                           "--solve", "5", "2", "--steps", "10",
                           "--svg", str(svg), "--csv", str(csv_file)])
        assert code == 0
        assert ET.parse(svg).getroot().tag.endswith("svg")
        lines = csv_file.read_text().splitlines()
        assert lines[0] == "i,phi"
        assert len(lines) == 12

    @pytest.mark.parametrize("R", [1e-12, 1e200, 1.7e308])
    def test_svg_in_units_of_R(self, R, tmp_path):
        # the drawing reads a/R and r/R, so every R gives the R = 1 picture
        unit = (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="480" '
            'height="480" viewBox="0 0 480 480">\n'
            '<g transform="translate(240.0,240.0) scale(208.695652,-208.695652)" '
            'stroke-width="0.009583" fill="none">\n'
            '<circle cx="0" cy="0" r="1.00000000" stroke="#888888"/>\n'
            '<circle cx="-0.20000000" cy="0" r="0.50000000" stroke="#888888"/>\n'
            '<polyline points="1.00000000,0.00000000 -0.65277778,0.75754945 '
            '-0.74358620,-0.66864009 0.98123739,-0.19280347" stroke="#003366"/>\n'
            '</g>\n</svg>\n')
        drawings = []
        for scale in (1.0, R):
            target = tmp_path / f"{scale!r}.svg"
            code, _ = run_cli(["poncelet", "--R", repr(scale), "--r", repr(0.5 * scale),
                               "--a", repr(0.2 * scale), "--steps", "3", "--svg", str(target)])
            assert code == 0
            drawings.append(target.read_text())
        factor = float(re.search(r"scale\(([^,]+),", drawings[1]).group(1))
        assert math.isfinite(factor) and factor > 0.0
        assert drawings == [unit, unit]


def scalar_draw_criterion_4(col, rng):
    """Criterion 4 as it drew its samples one rng.uniform call at a time: the reference."""
    col.add("kernel.K0", abs(elliptic_kernel.complete_K(0.0) - math.pi / 2), 1e-15)
    worst_rt = worst_add = worst_main = 0.0
    for _ in range(400):
        k = rng.uniform(0.0, 0.95)
        quarter = elliptic_kernel.complete_K(k)
        phi = rng.uniform(0.0, math.pi / 2)
        worst_rt = max(worst_rt, abs(
            elliptic_kernel.am(elliptic_kernel.incomplete_F(phi, k), k) - phi))
        u = rng.uniform(-3 * quarter, 3 * quarter)
        v = rng.uniform(-3 * quarter, 3 * quarter)
        tu = elliptic_kernel.jacobi_triple(u, k)
        tv = elliptic_kernel.jacobi_triple(v, k)
        added = elliptic_kernel.jacobi_sum(tu, tv, k)
        direct = elliptic_kernel.jacobi_triple(u + v, k)
        worst_add = max(worst_add, abs(added.sn - direct.sn),
                        abs(added.cn - direct.cn), abs(added.dn - direct.dn))
        diff = elliptic_kernel.jacobi_triple(u - v, k)
        worst_main = max(worst_main, abs(
            diff.cn - (tu.cn * tv.cn + tu.sn * tv.sn * diff.dn)))
    col.add("kernel.roundtrip", worst_rt, 1e-12)
    col.add("kernel.addition", worst_add, 1e-12)
    col.add("kernel.main_formula", worst_main, 1e-12)
    worst_oracle = 0.0
    for _ in range(20):
        k = rng.uniform(0.0, 0.95)
        u = rng.uniform(0.0, elliptic_kernel.complete_K(k))
        phi = elliptic_kernel.am(u, k)
        worst_oracle = max(worst_oracle, abs(oracles.quad_F(phi, k) - u))
    worst_oracle = max(worst_oracle, abs(oracles.quad_F(math.pi / 2, 0.8)
                                         - elliptic_kernel.complete_K(0.8)))
    col.add("kernel.quadrature_oracle", worst_oracle, 1e-11)


def per_iteration_criterion_10(col, rng):
    """Criterion 10's oracle legs as it drew them, one rng.uniform call per triangle: the reference."""
    worst = 0.0
    for _ in range(100):
        legs = rng.uniform(0.2, 1.35, size=2)
        parts, *_ = oracles.right_triangle(float(legs[0]), float(legs[1]))
        rule_one, rule_two = pentagram_algebra.verify_napier(parts)
        worst = max(worst, max(abs(r) for r in rule_one + rule_two))
    col.add("napier.rules", worst, 1e-11)


class TestVerifyAll:
    def test_default_run_reports_known_defect(self):
        # the stated 5/2 search input has no closing distance (inner circle
        # too large), so exactly those two checks fail and the exit code is 1
        code, output = run_cli(["verify-all", "--json"])
        assert code == 1
        doc = json.loads(output)
        failing = failing_checks(doc)
        assert sorted(failing) == sorted(f"08.{name}" for name in CRITERION_8_FAILING)
        assert all(doc["residuals"][name]["value"] == "inf" for name in failing)
        assert_statuses_follow_checks(doc)

    def test_unreachable_tolerance_fails(self):
        code, output = run_cli(["verify-all", "--tol", "1e-16", "--json"])
        assert code == 1
        doc = json.loads(output)
        assert len(failing_checks(doc)) > 10
        assert_statuses_follow_checks(doc)

    def test_seeded_output_is_byte_identical(self):
        _, first = run_cli(["verify-all", "--seed", "7", "--json"])
        _, second = run_cli(["verify-all", "--seed", "7", "--json"])
        assert first == second

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_block_draws_match_scalar_draws(self, seed, monkeypatch):
        # criterion 4 takes its 1,600 uniforms as one rng.random block; the
        # report is byte for byte the one the scalar draws gave
        _, block = run_cli(["verify-all", "--seed", str(seed), "--json"])
        description, _ = verify.CRITERIA[4]
        monkeypatch.setitem(verify.CRITERIA, 4, (description, scalar_draw_criterion_4))
        _, scalar = run_cli(["verify-all", "--seed", str(seed), "--json"])
        assert block == scalar

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_block_legs_match_per_iteration_legs(self, seed, monkeypatch):
        # criterion 10 takes its 100 pairs of legs as one rng.uniform block; the
        # napier.rules record is byte for byte the one the per-triangle draws gave
        monkeypatch.setattr(verify, "CRITERIA", {10: verify.CRITERIA[10]})
        _, block = run_cli(["verify-all", "--seed", str(seed), "--json"])
        monkeypatch.setitem(verify.CRITERIA, 10, ("reference", per_iteration_criterion_10))
        _, reference = run_cli(["verify-all", "--seed", str(seed), "--json"])
        record = re.compile(r'"10\.napier\.rules": \{[^}]*\}')
        assert record.search(block).group() == record.search(reference).group()

    def test_env_tolerance_override(self, monkeypatch):
        monkeypatch.setenv("PENTAGRAMMA_TOL", "1e-16")
        code, output = run_cli(["bridge", "--omega", "20", "--json"])
        assert code == 1
        assert json.loads(output)["residuals"]["cn_bridge"]["tol"] == 1e-16
        monkeypatch.setenv("PENTAGRAMMA_TOL", "1e-13")  # some criteria meet it, some miss
        doc = json.loads(run_cli(["verify-all", "--json"])[1])
        assert doc["inputs"]["tol"] == 1e-13
        assert {rec["tol"] for rec in doc["residuals"].values()} == {1e-13}
        assert_statuses_follow_checks(doc)
        assert set(doc["outputs"].values()) == {"pass", "fail"}

    @pytest.mark.parametrize("value", ["abc", "-1", "nan", "inf", "-inf"])
    def test_env_tolerance_rejected(self, value, monkeypatch, capsys):
        monkeypatch.setenv("PENTAGRAMMA_TOL", value)
        code, output = run_cli(["bridge", "--omega", "20"])
        assert (code, output) == (2, "")
        assert "PENTAGRAMMA_TOL" in capsys.readouterr().err

    def test_negative_tol_rejected(self, capsys):
        code, output = run_cli(["verify-all", "--tol=-1e-12", "--json"])
        assert code == 2
        message = capsys.readouterr().err
        assert "--tol" in message
        doc = assert_error_document(output, "verify-all", "DomainError", message)
        assert doc["inputs"] == {"seed": 0, "tol": -1e-12}

    def test_zero_tolerance_accepted(self, monkeypatch):
        monkeypatch.setenv("PENTAGRAMMA_TOL", "0")
        code, output = run_cli(["bridge", "--omega", "20", "--json"])
        assert code in (0, 1)
        assert {rec["tol"] for rec in json.loads(output)["residuals"].values()} == {0.0}


@pytest.mark.parametrize("argv", [
    ["napier", "--grid", "--samples", "-1"],
    ["napier", "--grid", "--seed", "-1"],
    ["napier", "--k", "0.5", "--seed", "-1"],
    ["verify-all", "--seed", "-2"]])
def test_negative_count_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(argv)
    assert info.value.code == 2
    message = capsys.readouterr().err
    assert message.startswith("usage:") and "is not a non-negative integer" in message


def loaded_modules(prefix, statement):
    """Names of the modules under prefix that a fresh interpreter holds after statement."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pentagramma.__file__)))
    code = (f"import sys\n{statement}\n"
            f"print(sorted(name for name in sys.modules if name.split('.')[0] == {prefix!r}))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("prefix", ["scipy", "numpy"])
def test_cli_import_leaves_unloaded(prefix):
    # scipy serves only the tests, numpy only the seeded draws and the
    # Poncelet walk; importing the command loads neither
    assert loaded_modules(prefix, "import pentagramma.cli") == "[]"


def test_verify_all_loads_no_scipy():
    # the battery's oracles are plain floats: scipy is a test dependency only
    statement = ("import io\nfrom pentagramma import cli\n"
                 "code = cli.main(['verify-all', '--json'], out=io.StringIO())\n"
                 "assert code == 1, code")
    assert loaded_modules("scipy", statement) == "[]"


def test_commands_without_a_seeded_draw_load_no_numpy():
    argvs = [["pentagram", "--alpha", "9", "--gamma", "2", "--json"],
             ["napier", "--k", "0.5", "--u", "0.3", "--json"],
             ["bridge", "--k", "0.3", "--json"],
             ["poncelet", "--R", "1", "--r", "0.5", "--a", "0.2", "--json"]]
    statement = ("import io\nfrom pentagramma import cli\n"
                 f"codes = [cli.main(argv, out=io.StringIO()) for argv in {argvs!r}]\n"
                 "assert codes == [0, 0, 0, 0], codes")
    assert loaded_modules("numpy", statement) == "[]"


EXIT_CODES = {errors.DomainError: 2, errors.GeometryError: 2,
              errors.SubcriticalError: 4, errors.NoSolutionError: 5}
ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.PentagrammaError)]


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_table(error, monkeypatch):
    # README: 2 domain or geometry, 4 subcritical, 5 failed search, 3 the rest
    def raise_error(args, out):
        raise error("raised for the exit-code table")

    monkeypatch.setattr(cli, "cmd_bridge", raise_error)
    code, output = run_cli(["bridge", "--omega", "20"])
    assert (code, output) == (EXIT_CODES.get(error, 3), "")
    code, output = run_cli(["bridge", "--omega", "20", "--json"])
    assert code == EXIT_CODES.get(error, 3)
    assert json.loads(output) == {"command": "bridge", "error": error.__name__,
                                  "inputs": {"omega": 20.0},
                                  "message": "raised for the exit-code table",
                                  "status": "error"}


@pytest.mark.parametrize("argv, message", [
    (["napier", "--k", "0.5", "--u", "0.3", "--csv", "F.csv"],
     "argument --csv: not allowed without argument --grid"),
    (["napier", "--grid", "--k", "0.7"], "argument --k: not allowed with argument --grid"),
    (["napier", "--grid", "--u", "0.3", "--csv", "F.csv"],
     "argument --u: not allowed with argument --grid"),
    (["napier", "--k", "0.5", "--u", "0.3", "--seed", "3"],
     "argument --seed: not allowed without argument --grid"),
    (["napier", "--k", "0.5", "--u", "0.3", "--samples", "7"],
     "argument --samples: not allowed without argument --grid"),
    # the porism starts from fixed angles, so poncelet takes no seed at all
    (["poncelet", "--R", "1", "--r", "0.3", "--solve", "5", "2", "--seed", "3"],
     "unrecognized arguments: --seed 3"),
    (["poncelet", "--R", "1", "--r", "0.3", "--solve", "5", "2", "--steps", "10"],
     "argument --steps: not allowed without argument --svg or --csv"),
    (["poncelet", "--R", "1", "--r", "0.5", "--a", "0.2", "--phi0", "-3"],
     "argument --phi0: not allowed without argument --svg or --csv")],
    ids=["napier-csv", "napier-grid-k", "napier-grid-u", "napier-seed", "napier-samples",
         "poncelet-seed", "poncelet-steps", "poncelet-phi0"])
def test_dropped_option_is_refused(argv, message, tmp_path, monkeypatch, capsys):
    # an option that the chosen mode would not read is a usage error: exit 2,
    # both options named, and no JSON document and no file
    monkeypatch.chdir(tmp_path)
    buffer = io.StringIO()
    with pytest.raises(SystemExit) as info:
        main([*argv, "--json"], out=buffer)
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert buffer.getvalue() == ""
    assert list(tmp_path.iterdir()) == []


def test_modes_read_their_options(tmp_path, monkeypatch):
    # each option with the mode that reads it, and the defaults when it is not given
    monkeypatch.chdir(tmp_path)
    assert run_cli(["napier", "--grid", "--samples", "1", "--seed", "2", "--json"])[0] == 0
    doc = json.loads(run_cli(["napier", "--json"])[1])
    assert doc["inputs"] == {"k": 0.0, "u": 0.0}
    code, _ = run_cli(["poncelet", "--R", "1", "--r", "0.3", "--solve", "5", "2",
                       "--steps", "3", "--phi0", "-3", "--csv", "w.csv"])
    assert code == 0 and len((tmp_path / "w.csv").read_text().splitlines()) == 5


_ERROR_CASES = [
    ("bridge", ["bridge", "--omega", "5"], 4, "SubcriticalError", {"omega": 5.0}),
    # the search reads no --a and draws no walk: those options are not listed
    ("poncelet", ["poncelet", "--R", "1", "--r", "0.4", "--solve", "5", "2"], 5,
     "NoSolutionError", {"R": 1.0, "r": 0.4, "solve": [5, 2]}),
    ("poncelet-unnested", ["poncelet", "--R", "1", "--r", "1.5", "--solve", "5", "2"], 2,
     "GeometryError", {"R": 1.0, "r": 1.5, "solve": [5, 2]})]


# PENTAGRAMMA_TOL is not an input of these modes, which have no --tol: it is not listed
@pytest.mark.parametrize("argv, code, error, inputs, env", [
    pytest.param(argv, code, error, inputs, env, id=name + ("-PENTAGRAMMA_TOL" if env else ""))
    for env in (None, "1e-3") for name, argv, code, error, inputs in _ERROR_CASES])
def test_error_reaches_json_consumers(argv, code, error, inputs, env, capsys, monkeypatch):
    if env is not None:
        monkeypatch.setenv("PENTAGRAMMA_TOL", env)
    # stdout carried nothing for these under --json; the stderr text is unchanged
    assert run_cli(argv) == (code, "")
    text_err = capsys.readouterr().err
    exit_code, output = run_cli([*argv, "--json"])
    assert exit_code == code
    assert capsys.readouterr().err == text_err
    doc = assert_error_document(output, argv[0], error, text_err)
    assert doc["inputs"] == inputs


@pytest.mark.parametrize("argv, flag", [
    (["napier", "--k", "0.5", "--u", "0.3"], "--svg"),
    (["poncelet", "--R", "1", "--r", "0.3", "--solve", "5", "2"], "--csv"),
    (["napier", "--grid", "--samples", "2"], "--csv")],
    ids=["napier-svg", "poncelet-csv", "napier-grid-csv"])
def test_unwritable_output_path(argv, flag, tmp_path, capsys):
    # a domain error of the inputs (exit 2), not a failed check and not a traceback
    target = str(tmp_path / "missing" / "out")
    code, output = run_cli([*argv, flag, target, "--json"])
    err = capsys.readouterr().err
    assert code == 2
    assert target in err and "Traceback" not in err
    doc = assert_error_document(output, argv[0], "FileNotFoundError", err)
    assert doc["inputs"][flag[2:]] == target
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv, lead", [
    (["napier", "--grid", "--samples", "100", "--json"], ""),
    (["napier", "--grid", "--samples", "100"], ""),
    (["poncelet", "--R", "1", "--r", "0.4", "--solve", "5", "2", "--json"],
     "search failed: inner radius r=0.4 is beyond the concentric limit")],
    ids=["--json", "None", "search-failed"])
def test_closed_stdout(argv, lead):
    # exit 2, one `cannot write` line after the typed error's own line if any, and
    # neither an error document nor a traceback.  The grid's reader stops after 10
    # bytes of more than a pipe holds; an error document is smaller than a pipe
    # buffer, so that pipe's read end is closed before the command starts
    src = os.path.dirname(os.path.dirname(os.path.abspath(pentagramma.__file__)))
    read_end, write_end = os.pipe()
    if lead:
        os.close(read_end)
    proc = subprocess.Popen([sys.executable, "-m", "pentagramma.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    if not lead:
        with os.fdopen(read_end, "rb") as reader:
            assert reader.read(10) == b"k,u,alpha_"
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 2
    assert err.startswith(lead) and err.endswith("cannot write: [Errno 32] Broken pipe\n")
    assert err.count("\n") == (2 if lead else 1)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("argv, lead", [
    (["bridge", "--omega", "20", "--json"], ""),
    (["napier", "--grid", "--samples", "2", "--json"], ""),
    (["bridge", "--omega", "5", "--json"],
     "subcritical: omega=5.0 below the critical value")],
    ids=["report", "grid", "subcritical"])
def test_full_stdout(argv, lead):
    # a full stdout is met like a closed one: exit 2, one `cannot write` line after
    # the typed error's own line if any, no second write and no traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(pentagramma.__file__)))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "pentagramma.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=src), stdout=full,
                              stderr=subprocess.PIPE, timeout=120)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert err.startswith(lead)
    assert err.endswith("cannot write: [Errno 28] No space left on device\n")
    assert err.count("\n") == (2 if lead else 1)


class TestJsonShape:
    def test_keys_sorted(self):
        _, output = run_cli(["bridge", "--omega", "20", "--json"])
        doc = json.loads(output)
        assert list(doc) == sorted(doc)
        assert list(doc["outputs"]) == sorted(doc["outputs"])

    def test_repeated_runs_identical(self):
        _, first = run_cli(["pentagram", "--alpha", "3", "--gamma", "1.5",
                            "--json"])
        _, second = run_cli(["pentagram", "--alpha", "3", "--gamma", "1.5",
                             "--json"])
        assert first == second


TEXT_VALUE = re.compile(r"^  (input|output) +(\S+) = (.*)$")


@pytest.mark.parametrize("argv", [
    ["pentagram", "--alpha", "9", "--gamma", "2"],
    ["napier", "--k", "0.5", "--u", "0.3"],
    ["bridge", "--omega", "20"],
    ["poncelet", "--R", "1", "--r", "0.5", "--a", "0.2"],
    ["verify-all", "--seed", "3"]], ids=lambda argv: argv[0])
def test_text_values_are_json_tokens(argv):
    _, text = run_cli(argv)
    _, document = run_cli([*argv, "--json"])
    doc = json.loads(document)
    seen = {"input": set(), "output": set()}
    for line in text.splitlines():
        match = TEXT_VALUE.match(line)
        if match:
            kind, key, token = match.groups()
            seen[kind].add(key)
            assert json.loads(token) == doc[f"{kind}s"][key]
            assert f'"{key}": {token}' in document
    assert seen == {"input": set(doc["inputs"]), "output": set(doc["outputs"])}
