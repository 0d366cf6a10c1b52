"""The output corpus tool's readers and diffs, without running the corpus."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def test_json_moves_name_each_key_path():
    before = {"exit": 0, "stdout": b'{"inputs": {"R": 1, "seed": 0}, "residuals": '
                                   b'{"03.critical.G": {"value": 0}}, "warnings": [1, 2]}\n'}
    after = {"exit": 2, "stdout": b'{"inputs": {"R": 1, "solve": [5, 2]}, "residuals": '
                                  b'{"03.critical.G": {"value": 3.552713678800501e-15}}, '
                                  b'"warnings": [1]}\n'}
    assert list(outputs.moved_values(before, after)) == [
        "exit 0 → 2",
        "stdout inputs.seed: 0 → (absent)",
        "stdout inputs.solve.0: (absent) → 5",
        "stdout inputs.solve.1: (absent) → 2",
        "stdout residuals.03.critical.G.value: 0 → 3.552713678800501e-15",
        "stdout warnings.1: 2 → (absent)"]
    assert list(outputs.moved_values(before, dict(before))) == []


def test_text_moves_name_the_first_line_and_the_count():
    before = {"exit": 0, "stdout": b"{}\n", "walk.csv": b"i,phi\n0,0\n1,0.5\n2,1\n",
              "stderr": b"usage: pentagramma poncelet\n"}
    after = {"exit": 0, "stdout": b"{} \n", "walk.csv": b"i,phi\n0,0\n1,0.25\n2,1.5\n3,2\n"}
    assert list(outputs.moved_values(before, after)) == [
        "stderr line 1: 'usage: pentagramma poncelet\\n' → '' (moved lines: 1)",
        # the same JSON value in other bytes is named by its lines
        "stdout line 1: '{}\\n' → '{} \\n' (moved lines: 1)",
        "walk.csv line 3: '1,0.5\\n' → '1,0.25\\n' (moved lines: 3)"]


def test_text_moves_align_a_deleted_line():
    # one deleted line is one moved line, named by itself, not every later line shifted
    before = {"exit": 0, "stdout": b"a\nb\nc\nd\n"}
    after = {"exit": 0, "stdout": b"a\nc\nd\n"}
    assert list(outputs.moved_values(before, after)) == [
        "stdout line 2: 'b\\n' → '' (moved lines: 1)"]
    assert list(outputs.moved_values(after, before)) == [
        "stdout line 2: '' → 'b\\n' (moved lines: 1)"]


def test_corpus_reads_the_readme_examples():
    examples = outputs.readme_examples(ROOT)
    assert [args[0] for args in examples] == [
        "pentagram", "napier", "napier", "bridge", "bridge", "poncelet", "poncelet",
        "verify-all"]
    assert examples[0] == ["pentagram", "--alpha", "9", "--gamma", "2"]
    assert examples[-1] == ["verify-all"]
    runs = outputs.corpus(ROOT)
    assert runs[:2] == [(examples[0], 0, None), ([*examples[0], "--json"], 0, None)]
    assert runs[14:16] == [(["verify-all"], 1, None), (["verify-all", "--json"], 1, None)]


def test_check_reads_each_battery_document():
    # a verify-all --json run is a problem when its document departs from the
    # battery's documented outcome, though its exit code is the expected 1
    args = ["verify-all", "--seed", "3", "--json"]
    statuses = {f"criterion_{n:02d}": "fail" if n == 8 else "pass" for n in range(1, 11)}
    residuals = {"01.example.cycle": {"value": 0.0, "tol": 1e-14},
                 "08.poncelet.search(5,2,R=1,r=0.4)": {"value": "inf", "tol": 1e-8},
                 "08.poncelet.search_residual(5,2,R=1,r=0.4)": {"value": "inf", "tol": 1e-12}}

    def problems(doc):
        run = {"exit": 1, "stdout": json.dumps(doc).encode() if doc else b""}
        return outputs.run_problems(args, 1, None, run, dict(run))

    assert problems({"outputs": statuses, "residuals": residuals}) == []
    extra = {**residuals, "05.law.grid": {"value": 2e-10, "tol": 1e-10}}
    assert problems({"outputs": statuses, "residuals": extra}) == [
        "verify-all --seed 3 --json: failing checks ['05.law.grid', "
        "'08.poncelet.search(5,2,R=1,r=0.4)', '08.poncelet.search_residual(5,2,R=1,r=0.4)'], "
        "expected ['08.poncelet.search(5,2,R=1,r=0.4)', "
        "'08.poncelet.search_residual(5,2,R=1,r=0.4)']"]
    wrong = problems({"outputs": {**statuses, "criterion_02": "fail"}, "residuals": residuals})
    assert len(wrong) == 1 and wrong[0].startswith("verify-all --seed 3 --json: statuses ")
    assert problems(None) == [
        "verify-all --seed 3 --json: no battery document on stdout"]
