import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import pentagramma
from battery_outcomes import CRITERION_8_FAILING
from pentagramma import cli, errors
from pentagramma.cli import main


def run_cli(argv):
    buffer = io.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


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


class TestPoncelet:
    def test_report_candidates(self):
        code, output = run_cli(["poncelet", "--R", "1", "--r", "0.5",
                                "--a", "0.2", "--json"])
        assert code == 0
        doc = json.loads(output)
        assert doc["status"] == "pass"
        assert "5/2" in doc["outputs"]["closure_residuals"]

    def test_concentric_closure_listed(self):
        code, output = run_cli(["poncelet", "--R", "1", "--r",
                                str(math.cos(2 * math.pi / 5)), "--a", "0",
                                "--json"])
        assert code == 0
        doc = json.loads(output)
        assert abs(doc["outputs"]["closure_residuals"]["5/2"]) < 1e-15

    def test_modulus_consistency_reports_both_forms(self):
        # k = 0 zeroes the sqrt form, so the cosine form |cos(alpha) - r/R| is reported
        argv = ["poncelet", "--R", "1", "--r", "0.5", "--a", "0", "--json"]
        residual = json.loads(run_cli(argv)[1])["residuals"]["modulus_consistency"]["value"]
        assert residual == abs(math.cos(math.acos(0.5)) - 0.5)

    def test_solve_star(self):
        code, output = run_cli(["poncelet", "--R", "1", "--r", "0.3",
                                "--solve", "5", "2", "--json"])
        assert code == 0
        doc = json.loads(output)
        assert doc["status"] == "pass"
        assert doc["residuals"]["porism_closure"]["value"] < 1e-8

    def test_invalid_nesting_exit(self):
        code, _ = run_cli(["poncelet", "--R", "1", "--r", "0.5", "--a", "0.6"])
        assert code == 2

    def test_search_failure_exit(self):
        code, _ = run_cli(["poncelet", "--R", "1", "--r", "0.4",
                           "--solve", "5", "2"])
        assert code == 5

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
        assert (code, output) == (2, "")
        assert "--tol" in capsys.readouterr().err

    def test_zero_tolerance_accepted(self, monkeypatch):
        monkeypatch.setenv("PENTAGRAMMA_TOL", "0")
        code, output = run_cli(["bridge", "--omega", "20", "--json"])
        assert code in (0, 1)
        assert {rec["tol"] for rec in json.loads(output)["residuals"].values()} == {0.0}


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
    code, output = run_cli(["bridge", "--omega", "20", "--json"])
    assert (code, output) == (EXIT_CODES.get(error, 3), "")


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
