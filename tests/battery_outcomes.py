"""The acceptance battery's documented outcome, shared by the tests that check it.

Criterion 8 runs search_closing_config(5, 2, R=1, r=0.4) exactly as stated.
A 5/2 star needs r <= R cos(2 pi/5) ~ 0.309 R, so that input has no closing
configuration: these two checks report residual inf with the NoSolutionError
message, and every other check of the battery passes.

tools/outputs.py reads each verify-all --json document of its corpus through
departures, and CI runs that tool on the runtime dependencies alone, so the
module imports nothing outside the standard library.
"""

CRITERION_8_FAILING = frozenset({
    "poncelet.search(5,2,R=1,r=0.4)",
    "poncelet.search_residual(5,2,R=1,r=0.4)",
})


def failing_checks(doc):
    """The checks of a verify-all --json document above their tolerance or not finite."""
    return sorted(name for name, rec in doc["residuals"].items()
                  if not isinstance(rec["value"], (int, float)) or rec["value"] > rec["tol"])


def departures(doc):
    """How a verify-all --json document departs from the documented outcome; [] if not."""
    failing = failing_checks(doc)
    expected = sorted(f"08.{name}" for name in CRITERION_8_FAILING)
    statuses = {f"criterion_{n:02d}": "fail" if n == 8 else "pass" for n in range(1, 11)}
    problems = []
    if failing != expected:
        problems.append(f"failing checks {failing}, expected {expected}")
    if doc["outputs"] != statuses:
        problems.append(f"statuses {doc['outputs']}, expected {statuses}")
    return problems
