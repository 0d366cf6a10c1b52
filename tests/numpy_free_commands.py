"""The commands that draw no seeded sample, and so must run without numpy.

    PYTHONPATH=src python tests/numpy_free_commands.py DIR

runs each command of COMMANDS in one interpreter through pentagramma.cli.main,
writing its --svg file under DIR, and exits 1 naming each command whose exit
code is not the expected one, or if numpy was loaded.  A tier-1 test runs it,
and CI runs it on the Python floor with no package installed, so the module
imports nothing outside the standard library but pentagramma.
"""
import sys

# (argv, expected exit code); "{dir}" stands for the directory of written files
COMMANDS = [
    (["pentagram", "--alpha", "9", "--gamma", "2", "--json"], 0),
    (["napier", "--k", "0.5", "--u", "0.3", "--json"], 0),
    (["napier", "--k", "0.5", "--u", "0.3", "--svg", "{dir}/p.svg"], 0),
    (["bridge", "--k", "0.3", "--json"], 0),
    (["poncelet", "--R", "1", "--r", "0.5", "--a", "0.2", "--json"], 0),
    # Chapple-Euler's triangle, a^2 = R(R - 2r): the outer centre outside the inner circle
    (["poncelet", "--R", "1", "--r", "0.3", "--a", "0.6324555320336759", "--json"], 0),
    (["poncelet", "--R", "1", "--r", "0.3", "--solve", "5", "2", "--json"], 0),
    # an error document: the search fails before any walk is drawn
    (["poncelet", "--R", "1", "--r", "0.4", "--solve", "5", "2", "--json"], 5),
]


def main(directory: str) -> int:
    from pentagramma import cli

    problems = []
    for argv, expected in COMMANDS:
        argv = [arg.format(dir=directory) for arg in argv]
        print("$ pentagramma " + " ".join(argv), flush=True)
        code = cli.main(argv, out=sys.stdout)
        if code != expected:
            problems.append(f"pentagramma {' '.join(argv)}: exit {code}, expected {expected}")
    if "numpy" in sys.modules:
        problems.append("numpy was loaded")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
