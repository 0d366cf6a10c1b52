"""Release criteria, one test per criterion, one printed line per check.

Each test asserts the battery's report for its criterion exactly as
documented: every check passes, except two in criterion 8.  Criterion 8 runs
search_closing_config(5, 2, R=1, r=0.4) as stated, and that input admits no
closing configuration (a 5/2 star cannot stay tangent to an inner circle
beyond about 0.31 of the outer radius).  Its test asserts that exactly those
two checks fail, with residual inf and the NoSolutionError message, and that
the r = 0.3 search, the porism, shadowing and modulus consistency pass.  The
infeasibility is confirmed by an oracle that shares no code with the kernel
or the search: the quadrature rotation number stays below 2/5 over the whole
nested range of centre distances at r = 0.4, and exceeds 2/5 at r = 0.3.
"""
import io
import json
import math

import mpmath
import pytest

from battery_outcomes import CRITERION_8_FAILING
from pentagramma import verify
from pentagramma.cli import main
from pentagramma.oracles import rotation_number


def _report(number, checks, capsys):
    with capsys.disabled():
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            extra = f"  [{c.detail}]" if c.detail else ""
            print(f"[{status}] criterion {number:02d} {c.name}: "
                  f"residual={c.residual:.3e} tol={c.tol:.1e}{extra}")
        overall = "PASS" if all(c.passed for c in checks) else "FAIL"
        print(f"[{overall}] criterion {number:02d} overall")


CRITERION_8_PASSING = {
    "poncelet.search_residual(5,2,R=1,r=0.3)",
    "poncelet.porism(5,2,R=1,r=0.3)",
    "poncelet.shadowing",
    "poncelet.modulus_consistency",
}


def _assert_no_closing_distance(R, r):
    """No centre distance a in [0, R - r) gives the 5/2 rotation number 2/5.

    The quadrature rotation number falls monotonically from arccos(r/R)/pi
    at a = 0, so it stays below 2/5 inside and outside the search bracket.
    """
    rho = [rotation_number(R, r, (R - r) * i / 60) for i in range(60)]
    assert max(rho) < 2 / 5, max(rho)
    assert all(later < earlier for earlier, later in zip(rho, rho[1:]))
    assert rho[0] == pytest.approx(math.acos(r / R) / math.pi, rel=1e-12)


@pytest.mark.parametrize("number", sorted(verify.CRITERIA))
def test_criterion(number, capsys):
    checks = verify.run_criterion(number, seed=0)
    _report(number, checks, capsys)
    failing = [c for c in checks if not c.passed]
    expected = CRITERION_8_FAILING if number == 8 else frozenset()
    assert {c.name for c in failing} == expected, "; ".join(
        f"{c.name}: residual={c.residual:.3e} tol={c.tol:.1e} {c.detail}"
        for c in failing)
    for c in failing:
        assert c.residual == math.inf, c.name
        assert "no closing configuration" in c.detail, c.name
    if number == 8:
        assert {c.name for c in checks if c.passed} == CRITERION_8_PASSING
        _assert_no_closing_distance(R=1.0, r=0.4)
        # the oracle does see a closing distance where the battery finds one
        assert rotation_number(1.0, 0.3, 0.0) > 2 / 5


def test_rotation_number_against_mpmath():
    # a = 0.59 puts the modulus at 0.9983, where the quadrature is hardest:
    # a wrong oracle there would let the criterion 8 infeasibility pass
    R, r, a = 1.0, 0.4, 0.59
    with mpmath.workdps(30):
        R_, r_, a_ = mpmath.mpf(R), mpmath.mpf(r), mpmath.mpf(a)
        m = 4 * R_ * a_ / ((R_ + a_) ** 2 - r_ ** 2)
        alpha = mpmath.acos(r_ / (R_ + a_))
        expected = float(mpmath.ellipf(alpha, m) / mpmath.ellipf(mpmath.pi, m))
    assert rotation_number(R, r, a) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_criterion_1_through_cli():
    # criterion 1 names the command line; drive it end to end
    buffer = io.StringIO()
    code = main(["pentagram", "--alpha", "9", "--gamma", "2", "--json"],
                out=buffer)
    assert code == 0
    doc = json.loads(buffer.getvalue())
    target = [9.0, 2.0 / 3.0, 2.0, 5.0, 1.0 / 3.0]
    assert max(abs(a - t) for a, t in zip(doc["outputs"]["alphas"], target)) < 1e-14
    assert abs(doc["outputs"]["omega"] - 20.0) < 1e-13


def test_full_battery_runtime():
    import time
    start = time.time()
    verify.run_all(seed=0)
    assert time.time() - start < 60.0
