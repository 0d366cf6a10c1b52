"""The command line's output corpus, run on one source tree or compared across two.

    python tools/outputs.py check TREE         # exit 1 on a problem, naming the run
    python tools/outputs.py compare BASE HEAD  # print each moved value; never fails

Each run is `python -m pentagramma.cli` with PYTHONPATH=TREE/src, in a fresh
directory that keeps its written files, at most two runs at a time.  `check`
runs the corpus twice and fails on an unexpected exit code or --json error type,
on a verify-all --json document that departs from the battery's documented
outcome (tests/battery_outcomes.py), or on any byte of stdout, stderr or a
written file that moved between the runs.
`compare` runs HEAD's corpus once on each tree and prints each moved value.
"""
import difflib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# the battery's documented outcome, beside the tests; it imports the standard library only
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from battery_outcomes import departures  # noqa: E402

# (arguments, exit code, the --json document's "error" type or None), after the
# README examples and verify-all at seeds 0-9, each plain and --json
FIXED = [
    ("napier --grid", 0, None),
    ("napier --grid --samples 200", 0, None),  # 2,000 sweep frames
    # kernel bits near k = 1, at MAX_MODULUS and at large and subnormal u; the cubic
    # solver near omega_c and at a large omega; exit 1 is a known failure (README)
    ("bridge --k 0.9999999", 0, None),
    ("bridge --k 0.9999999 --json", 0, None),
    ("napier --k 0.999999999999 --u 0.3 --json", 1, None),
    ("napier --k 0.5 --u 1e6 --json", 1, None),
    ("napier --k 0.5 --u 1e-310 --json", 0, None),
    ("bridge --omega 11.090169943749475 --json", 0, None),
    ("bridge --omega 1e5 --json", 1, None),
    # the bridge near the regular pentagram, where the spectral k is 0, and a searched
    # root near tangency, where one ulp of a moves the closure residual past its tolerance
    ("bridge --k 0.001 --json", 1, None),
    ("poncelet --R 1 --r 0.5 --solve 12 1 --json", 1, None),
    # every chord angle of two walks; the CSVs print 17 digits, so any moved bit shows
    ("poncelet --R 1 --r 0.3 --solve 5 2 --steps 100000 --csv walk52.csv --json", 0, None),
    ("poncelet --R 1 --r 0.5 --a 0.2 --phi0 -3 --steps 500 --csv walkneg.csv --json", 0, None),
    # one input per reachable exit code; 3 (invariant violation) no input reaches
    ("poncelet --R 1e200 --r 5e199 --a 2e199 --json", 0, None),
    ("poncelet --R 1e-12 --r 3e-13 --solve 5 2 --json", 0, None),
    ("poncelet --R 1.7e308 --r 5e307 --a 1e307 --steps 5 --csv w.csv --json", 0, None),
    ("poncelet --R 1.7e308 --r 5e307 --solve 5 2 --json", 0, None),
    ("poncelet --R 1.7e308 --r 5e307 --a 1e307 --steps 5 --svg x.svg --json", 0, None),
    ("poncelet --R 1e200 --r 5e199 --a 2e199 --svg x.svg --json", 0, None),
    ("poncelet --R 1 --r 0.5 --a 0.6 --json", 2, "GeometryError"),
    # nested pairs with the outer centre outside the inner circle: Chapple-Euler's
    # triangle, and a pair near tangency whose k^2 only the squared consistency form holds
    ("poncelet --R 1 --r 0.3 --a 0.6324555320336759 --json", 0, None),
    ("poncelet --R 1 --r 0.0001 --a 0.99986 --json", 0, None),
    ("poncelet --R 1 --r 1.5 --solve 5 2 --json", 2, "GeometryError"),
    ("bridge --k 1.0 --json", 2, "DomainError"),
    ("poncelet --R 1 --r 0.7631943040467181 --a 0.23680569595328171 --json", 2, "DomainError"),
    ("poncelet --R 1 --r 0.5 --a 0.2 --phi0 1e15 --steps 5 --csv w.csv --json", 2, "DomainError"),
    ("bridge --omega 5 --json", 4, "SubcriticalError"),
    ("poncelet --R 1 --r 0.4 --solve 5 2 --json", 5, "NoSolutionError"),
    # an option that the chosen mode would drop is a usage error, with no document
    ("napier --k 0.5 --u 0.3 --csv x.csv --json", 2, None),
    ("napier --grid --k 0.7 --json", 2, None),
    ("napier --grid --u 0.3 --json", 2, None),
    ("napier --k 0.5 --u 0.3 --seed 3 --json", 2, None),
    ("napier --k 0.5 --u 0.3 --samples 7 --json", 2, None),
    # a JSON report of the grid is a report of its --csv file
    ("napier --grid --json", 2, "DomainError"),
    ("poncelet --R 1 --r 0.3 --a 0.1 --solve 5 2 --json", 2, None),
    ("poncelet --R 1 --r 0.3 --solve 5 2 --steps 10 --json", 2, None),
    ("poncelet --R 1 --r 0.5 --a 0.2 --phi0 -3 --json", 2, None),
    # seeds whose product underflows, refused by the cycle's own bounds
    ("pentagram --alpha 1e-200 --gamma 1e-200 --json", 2, "DomainError"),
    # codes that ROADMAP items 7 and 8 will move: the omega-domain gap, three pairs
    # that close but are not found, the half-turn refusal and the empty bracket
    ("pentagram --alpha 1e7 --gamma 3 --json", 2, "DomainError"),
    ("poncelet --R 1 --r 0.3 --solve 5 1 --json", 5, "NoSolutionError"),
    ("poncelet --R 1 --r 0.3 --solve 3 1 --json", 5, "NoSolutionError"),
    ("poncelet --R 1 --r 0.2 --solve 5 2 --json", 5, "NoSolutionError"),
    ("poncelet --R 1 --r 0.3 --solve 5 4 --json", 5, "NoSolutionError"),
    ("poncelet --R 1 --r 1e-10 --solve 40 1 --json", 5, "NoSolutionError"),
]


def readme_examples(tree):
    """The argument lists of the README's `## Command line` examples."""
    text = Path(tree, "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.partition("#")[0])[1:]
            for line in block.splitlines() if line.startswith("pentagramma ")]


def corpus(tree):
    """Each run as (arguments, exit code, error type); verify-all fails by criterion 8."""
    battery = [["verify-all", "--seed", str(seed)] for seed in range(10)]
    return [([*args, *json_flag], 1 if args[0] == "verify-all" else 0, None)
            for args in readme_examples(tree) + battery for json_flag in ([], ["--json"])
            ] + [(shlex.split(args), code, error) for args, code, error in FIXED]


def run(tree, args):
    """The outputs of one run: its exit code, stdout, stderr and each file written."""
    # the expected codes hold at the default tolerances, which PENTAGRAMMA_TOL overrides
    env = {key: value for key, value in os.environ.items() if key != "PENTAGRAMMA_TOL"}
    env["PYTHONPATH"] = str(Path(tree, "src").resolve())
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-m", "pentagramma.cli", *args], cwd=cwd,
                              env=env, capture_output=True, timeout=600)
        written = {path.name: path.read_bytes() for path in Path(cwd).iterdir()}
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, **written}


def run_all(jobs):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda job: run(*job), jobs))


def run_problems(args, code, error, first, second):
    """What is wrong with one run of the corpus, given its outputs from two runs."""
    name = " ".join(args)
    try:
        doc = json.loads(first["stdout"])
    except ValueError:
        doc = None
    got = doc.get("error") if isinstance(doc, dict) else None
    problems = []
    if (first["exit"], got) != (code, error):
        problems.append(f"{name}: exit {first['exit']} error {got}, expected {code} {error}")
    if args[0] == "verify-all" and "--json" in args:
        battery = (departures(doc) if isinstance(doc, dict) and "residuals" in doc
                   else ["no battery document on stdout"])
        problems += [f"{name}: {line}" for line in battery]
    return problems + [f"{name}: rerun {line}" for line in moved_values(first, second)]


def check(tree):
    runs = corpus(tree)
    outputs = run_all([(tree, args) for args, _, _ in runs] * 2)
    problems = [line for expected, first, second in zip(runs, outputs, outputs[len(runs):])
                for line in run_problems(*expected, first, second)]
    print(*problems, f"{len(runs)} runs, each twice: {len(problems)} problems", sep="\n")
    return 1 if problems else 0


def flatten(doc, path=""):
    """Each JSON leaf as {key path: its token}."""
    if not isinstance(doc, (dict, list)):
        return {path: json.dumps(doc)}
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    return {leaf: token for key, value in items
            for leaf, token in flatten(value, f"{path}.{key}" if path else str(key)).items()}


def moved_values(old, new):
    """One line per moved value of a run's outputs."""
    if old["exit"] != new["exit"]:
        yield f"exit {old['exit']} → {new['exit']}"
    for key in sorted((old.keys() | new.keys()) - {"exit"}):
        before, after = old.get(key, b""), new.get(key, b"")
        if before == after:
            continue
        try:
            x, y = flatten(json.loads(before)), flatten(json.loads(after))
        except ValueError:  # not JSON on both sides
            x, y = {}, {}
        moves = [f"{key} {path}: {x.get(path, '(absent)')} → {y.get(path, '(absent)')}"
                 for path in sorted(x.keys() | y.keys()) if x.get(path) != y.get(path)]
        if not moves:  # text, or the same JSON values in other bytes: name the lines
            was, now = (side.decode(errors="backslashreplace").splitlines(True)
                        for side in (before, after))
            # aligned, so a deleted or inserted line is one moved line, not every later one;
            # the same line count pairs by position, as SequenceMatcher is quadratic in
            # interleaved moves (55 s on 30,000 CSV rows with every third moved)
            if len(was) == len(now):
                blocks = [("replace", i, i + 1, i, i + 1)
                          for i in range(len(was)) if was[i] != now[i]]
            else:
                blocks = [op for op in difflib.SequenceMatcher(None, was, now, autojunk=False)
                          .get_opcodes() if op[0] != "equal"]
            _, i1, i2, j1, j2 = blocks[0]
            first = (was[i1] if i1 < i2 else "", now[j1] if j1 < j2 else "")
            count = sum(max(i2 - i1, j2 - j1) for _, i1, i2, j1, j2 in blocks)
            moves = [f"{key} line {i1 + 1}: {first[0]!r} → {first[1]!r} (moved lines: {count})"]
        yield from moves


def compare(base, head):
    runs = corpus(head)
    outputs = run_all([(tree, args) for tree in (base, head) for args, _, _ in runs])
    moved = [f"{' '.join(args)}: {line}" for (args, _, _), old, new
             in zip(runs, outputs, outputs[len(runs):]) for line in moved_values(old, new)]
    print(*moved, f"{len(moved)} moved values in {len(runs)} runs", sep="\n")
    return 0


if __name__ == "__main__":
    mode, *trees = sys.argv[1:] or [None]
    if (mode, len(trees)) not in (("check", 1), ("compare", 2)):
        sys.exit(__doc__)
    sys.exit({"check": check, "compare": compare}[mode](*trees))
