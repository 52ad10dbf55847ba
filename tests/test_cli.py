import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from revisekit import cli
from revisekit.dsl import parse_base, parse_literals
from revisekit.revision import WEIGHTED, Explanandum, SelectionStrategy, revise

BASE = "Wor(charlie). Wor(charlie) -> Ins(charlie).\n"
EXPL = "!Ins(charlie).\n"
FALAPPA_BASE = (
    "Wor(charlie). Wor(diana). "
    "Wor(charlie) -> Ins(charlie). Wor(diana) -> Ins(diana).\n"
)
FALAPPA_EXPL = "Wor(diana). Cop(charlie). Wor(charlie) & Cop(charlie) -> !Ins(charlie).\n"

SCENARIO = """[meta]
id = cli-demo
type = I

[statements]
S1: conditional: Fever(X) -> HighTemperature(X).
S2: categorical: Fever(maria).

[fact]
!HighTemperature(maria).
"""


def _run_cli(*args: str, module: str = "revisekit.cli", **env: str) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args],
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True)


@pytest.fixture
def base_file(tmp_path):
    path = tmp_path / "base.rk"
    path.write_text(BASE, encoding="utf-8")
    return path


@pytest.fixture
def expl_file(tmp_path):
    path = tmp_path / "expl.rk"
    path.write_text(EXPL, encoding="utf-8")
    return path


def test_python_m_revisekit_runs_main(tmp_path, capsys):
    code = cli.main(["corpus", "--format=json"])
    run = _run_cli("corpus", "--format=json", module="revisekit")
    assert (run.returncode, run.stdout) == (code, capsys.readouterr().out)
    bad = tmp_path / "bad.rk"
    bad.write_text("Wor(charlie", encoding="utf-8")
    run = _run_cli("check", str(bad), module="revisekit")
    assert run.returncode == 2
    assert "parse error" in run.stderr


def test_parser_lists_commands():
    help_text = cli.build_parser().format_help()
    for command in ("check", "revise", "kernels", "corpus", "suite"):
        assert command in help_text


class TestCheck:
    def test_valid_base(self, base_file, capsys):
        assert cli.main(["check", str(base_file)]) == 0
        assert "2 statement(s)" in capsys.readouterr().out

    def test_valid_scenario_reports_type(self, tmp_path, capsys):
        path = tmp_path / "s.scn"
        path.write_text(SCENARIO, encoding="utf-8")
        assert cli.main(["check", str(path)]) == 0
        assert "type I" in capsys.readouterr().out

    def test_corpus_file_checks_clean(self, capsys):
        from importlib import resources
        text = resources.files("revisekit.corpus_data").joinpath("exp1_s5.scn").read_text()
        import tempfile, pathlib
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "exp1_s5.scn"
            path.write_text(text, encoding="utf-8")
            assert cli.main(["check", str(path), "--format=json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload == {"kind": "scenario", "valid": True,
                               "id": "exp1-s5", "type": "II"}

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.rk"
        path.write_text("Wor(charlie", encoding="utf-8")
        assert cli.main(["check", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, message", [
        ("base.rk", "p(café).\n", "parse error at 1:6: unexpected character 'é'\n"),
        # scenario errors report file positions
        ("s.scn", SCENARIO.replace("Fever(maria).", "Fever(maría)."),
         "parse error at 7:27: unexpected character 'í'\n"),
        ("end.rk", "p(a) // no dot", "parse error at 1:6: expected dot, found 'end of input'\n"),
        ("fact.scn", SCENARIO.replace("!HighTemperature(maria).",
                                      "!HighTemperature(maria) & Fever(maria) Qux."),
         "parse error at 10:40: expected eof, found 'Qux'\n"),
        ("expl.scn", SCENARIO + "\n[explanation]\n// why the fact holds\n\n"
                               "Cop(maria).   Cop(X) -> !HighTemperature(X) Bad.\n",
         "parse error at 15:45: expected dot, found 'Bad'\n"),
        ("dup.scn", SCENARIO + "\n[explanation]\n  Q(a). Q(a).  // twice\n",
         "parse error at 13:14: duplicate formula: Q(a)\n"),
        # lines end at \n only: a form feed ends no line and is no blank, so
        # one alone on line 4 fails there, before the bad character on line 7
        ("ff.scn", SCENARIO.replace("type = I\n\n", "type = I\n\f\n").replace(
            "Fever(maria).", "Fever(maría)."), "parse error at 4:1: unexpected character '\\x0c'\n"),
        ("ffline.scn", SCENARIO.replace("!HighTemperature(maria).", "!HighTemperature(maria)\f."),
         "parse error at 10:24: unexpected character '\\x0c'\n"),
        ("nofact.scn", SCENARIO.replace("!HighTemperature(maria).", "// none"),
         "parse error at 9:7: expected ident, found 'end of input'\n"),
    ])
    def test_parse_error_positions(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert cli.main(["check", str(path)]) == 2
        assert capsys.readouterr().err == message

    def test_invariant_violation_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text(SCENARIO.replace("!HighTemperature(maria).",
                                         "HighTemperature(maria)."), encoding="utf-8")
        assert cli.main(["check", str(path)]) == 3
        assert "fact-consistent-with-statements" in capsys.readouterr().err


class TestRevise:
    def test_text_output(self, base_file, expl_file, capsys):
        code = cli.main(["revise", str(base_file), str(expl_file), "!Ins(charlie)",
                         "--strategy=min-cardinality"])
        out = capsys.readouterr().out
        assert code == 0
        assert "retracted:" in out and "B.f1: Wor(charlie)" in out
        assert "entails explanandum: true" in out

    def test_json_output(self, base_file, expl_file, capsys):
        code = cli.main(["revise", str(base_file), str(expl_file), "!Ins(charlie)",
                         "--format=json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "min-cardinality"
        assert payload["entails_explanandum"] is True
        assert payload["postulates"]["strong-acceptance"] is True
        assert payload["retracted"] == [{"labels": ["B.f1"], "formula": "Wor(charlie)"}]
        assert payload["change_measure"]["numerator"] == 4

    def test_json_deterministic(self, base_file, expl_file, capsys):
        argv = ["revise", str(base_file), str(expl_file), "!Ins(charlie)",
                "--strategy=seeded-random", "--seed=9", "--format=json"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("weights", ['{"Wor(charlie)": "x"}', "[1,2]"])
    def test_malformed_weights_exit_1(self, base_file, expl_file, weights):
        run = _run_cli("revise", str(base_file), str(expl_file), "!Ins(charlie)",
                       "--strategy=weighted", f"--weights={weights}")
        assert run.returncode == 1
        assert run.stderr.startswith("error:") and "Traceback" not in run.stderr

    def test_deeply_nested_weights_exit_1(self, base_file, expl_file):
        run = _run_cli("revise", str(base_file), str(expl_file), "!Ins(charlie)",
                       "--strategy=weighted", "--weights=" + "[" * 20_000)
        assert run.returncode == 1
        assert run.stderr == "error: --weights JSON is nested too deeply\n"
        assert "Traceback" not in run.stderr

    def test_library_rejects_non_numeric_weights(self):
        with pytest.raises(ValueError, match="not a number"):
            SelectionStrategy.named(WEIGHTED, weights={"Wor(charlie)": "x"})
        with pytest.raises(ValueError, match="not a number"):
            SelectionStrategy(WEIGHTED, weights=(("Wor(charlie)", None),))
        phi = Explanandum(parse_literals("!Ins(charlie)"))
        for w in (float("nan"), -1, True, 2.5):
            strategy = SelectionStrategy.named(WEIGHTED, weights={"Wor(charlie)": w})
            result = revise(parse_base(BASE), parse_base(EXPL), phi, strategy)
            assert len(result.retracted) == 1

    @pytest.mark.parametrize("weights", ['{"Wor(charlie)": NaN}', '{"Wor(charlie)": -1}', "{}"])
    def test_nan_negative_and_empty_weights_accepted(self, base_file, expl_file, capsys, weights):
        assert cli.main(["revise", str(base_file), str(expl_file), "!Ins(charlie)",
                         "--strategy=weighted", f"--weights={weights}"]) == 0
        assert "retracted:" in capsys.readouterr().out

    def test_interactive(self, base_file, expl_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2\n"))
        code = cli.main(["revise", str(base_file), str(expl_file), "!Ins(charlie)",
                         "--interactive"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1) {Wor(charlie)}" in out
        assert "B.r1: Wor(charlie) -> Ins(charlie)" in out

    def test_interactive_reprompts_on_bad_input(self, base_file, expl_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("9\nx\n1\n"))
        code = cli.main(["revise", str(base_file), str(expl_file), "!Ins(charlie)",
                         "--interactive"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("enter a number between") == 2
        assert "B.f1: Wor(charlie)" in out

    def test_interactive_end_of_input_exit_1(self, base_file, expl_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = cli.main(["revise", str(base_file), str(expl_file), "!Ins(charlie)",
                         "--interactive"])
        assert code == 1
        assert capsys.readouterr().err == "error: input ended before a correction set was selected\n"

    def test_interactive_json_keeps_menu_off_stdout(self, base_file, expl_file, capsys,
                                                    monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x\n2\n"))
        code = cli.main(["revise", str(base_file), str(expl_file), "!Ins(charlie)",
                         "--interactive", "--format=json"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["retracted"] == [
            {"labels": ["B.r1"], "formula": "Wor(charlie) -> Ins(charlie)"}]
        assert "1) {Wor(charlie)}" in captured.err
        assert "enter a number between 1 and 3" in captured.err
        assert captured.err.endswith("select [1-3]: ")

    def test_falappa_flags_violation(self, tmp_path, capsys):
        base = tmp_path / "b.rk"
        expl = tmp_path / "e.rk"
        base.write_text(FALAPPA_BASE, encoding="utf-8")
        expl.write_text(FALAPPA_EXPL, encoding="utf-8")
        code = cli.main(["revise", str(base), str(expl), "!Ins(charlie)",
                         "--operator=falappa", "--strategy=canonical-first",
                         "--format=json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "falappa:canonical-first"
        assert payload["entails_explanandum"] is False
        assert payload["postulates"]["strong-acceptance"] is False

    def test_invalid_explanation_exit_4(self, base_file, tmp_path, capsys):
        bad = tmp_path / "bad.rk"
        bad.write_text("!Ins(charlie). Wor(diana).\n", encoding="utf-8")
        assert cli.main(["revise", str(base_file), str(bad), "!Ins(charlie)"]) == 4
        assert "not minimal" in capsys.readouterr().err
        # validation comes before the union is sized against the cap
        assert cli.main(["revise", str(base_file), str(bad), "!Ins(charlie)", "--max-ground=1"]) == 4
        assert "not minimal" in capsys.readouterr().err

    def test_cap_exceeded_exit_5(self, base_file, expl_file, capsys):
        assert cli.main(["revise", str(base_file), str(expl_file), "!Ins(charlie)",
                         "--max-ground=1"]) == 5

    def test_env_cap(self, base_file, expl_file, capsys, monkeypatch):
        monkeypatch.setenv("REVISEKIT_MAX_GROUND", "1")
        assert cli.main(["revise", str(base_file), str(expl_file), "!Ins(charlie)"]) == 5
        # an explicit flag beats the environment
        assert cli.main(["revise", str(base_file), str(expl_file), "!Ins(charlie)",
                         "--max-ground=24"]) == 0

    @pytest.mark.parametrize("flag, env", [(["--max-ground", "-3"], None), ([], "-3")])
    def test_negative_cap_exit_1(self, base_file, expl_file, capsys, monkeypatch, flag, env):
        if env is not None:
            monkeypatch.setenv("REVISEKIT_MAX_GROUND", env)
        code = cli.main(["revise", str(base_file), str(expl_file), "!Ins(charlie)", *flag])
        assert code == 1
        assert capsys.readouterr().err == "error: the ground cap must not be negative, got -3\n"


class TestKernels:
    def test_six_lines(self, base_file, expl_file, capsys):
        assert cli.main(["kernels", str(base_file), str(expl_file)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert lines[0] == "{!Ins(charlie)}"

    def test_muses_single_line(self, tmp_path, capsys):
        base = tmp_path / "b.rk"
        expl = tmp_path / "e.rk"
        base.write_text(FALAPPA_BASE, encoding="utf-8")
        expl.write_text(FALAPPA_EXPL, encoding="utf-8")
        assert cli.main(["kernels", str(base), str(expl), "--muses"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1

    def test_consistent_pair_empty(self, tmp_path, capsys):
        base = tmp_path / "b.rk"
        expl = tmp_path / "e.rk"
        base.write_text("Wor(charlie).\n", encoding="utf-8")
        expl.write_text("Ins(charlie).\n", encoding="utf-8")
        assert cli.main(["kernels", str(base), str(expl)]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_json(self, base_file, expl_file, capsys):
        assert cli.main(["kernels", str(base_file), str(expl_file), "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["correction_sets"]) == 6


class TestCorpus:
    def test_text_table(self, capsys):
        assert cli.main(["corpus", "--experiment=2"]) == 0
        out = capsys.readouterr().out
        assert out.count("exp2-") >= 18  # 3 rows + 1 comparison per scenario
        assert "exceptions" in out

    def test_json(self, capsys):
        assert cli.main(["corpus", "--experiment=1", "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_entries"] == 9
        assert len(payload["rows"]) == 18
        assert all(set(c) >= {"id", "d_minimal", "d_non_minimal"}
                   for c in payload["comparisons"])


class TestSuite:
    def test_zero_trials(self, capsys):
        assert cli.main(["suite", "--trials=0"]) == 0
        out = capsys.readouterr().out
        assert "trials: 0" in out

    def test_small_run_exit_0(self, capsys):
        assert cli.main(["suite", "--trials=20", "--seed=5", "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == []
        assert payload["trials"] == 20

    @pytest.mark.parametrize("arg", [
        "--predicates=0", "--predicates=-1", "--body-length=0", "--rules=-1",
        "--constants=-1", "--trials=-2",
    ])
    def test_out_of_range_sizes_exit_1(self, arg):
        run = _run_cli("suite", "--trials=3", arg)
        assert run.returncode == 1
        assert run.stderr.startswith("error:") and "Traceback" not in run.stderr
        assert run.stderr.count("\n") == 1

    def test_cap_below_the_reversion_pair_exit_0(self, capsys):
        # the fixed reversion pair's union has 7 ground formulas; it is skipped
        assert cli.main(["suite", "--trials=5", "--max-ground=6", "--format=json"]) == 0
        assert json.loads(capsys.readouterr().out)["trials"] == 5

    def test_falappa_informational(self, capsys):
        assert cli.main(["suite", "--trials=10", "--operator=falappa"]) == 0
        assert "informational" in capsys.readouterr().out


@pytest.mark.parametrize("error, line", [
    (RecursionError("maximum recursion depth exceeded"),
     "error: RecursionError maximum recursion depth exceeded\n"),
    (MemoryError(), "error: MemoryError\n"),
])
def test_resource_errors_exit_1(base_file, capsys, monkeypatch, error, line):
    def command(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "check", command)
    assert cli.main(["check", str(base_file)]) == 1
    assert capsys.readouterr().err == line


def test_json_output_independent_of_hash_seed():
    commands = (["corpus", "--format=json"], ["suite", "--trials=50", "--format=json"])
    outputs = []
    for hash_seed in ("0", "1"):
        runs = [_run_cli(*args, PYTHONHASHSEED=hash_seed) for args in commands]
        assert all(run.returncode == 0 for run in runs)
        outputs.append([run.stdout for run in runs])
    assert all(outputs[0])
    assert outputs[0] == outputs[1]


# --- fuzzing `check` on scenario text -------------------------------------------

_SHIPPED = [p.read_text(encoding="utf-8")
            for p in sorted(Path(cli.__file__).parent.joinpath("corpus_data").glob("*.scn"))]
# the DSL's punctuation, its whitespace and some that is not, non-ASCII
# letters, and whole pieces of a scenario
_PIECES = [*"!&.,():=/[]", "->", "//", *" \t\r\n\f\x85", *"éíßΩ", "a", "X", "P", "P(X)", "Q(a, b)",
           "[meta]", "[statements]", "[fact]", "[explanation]", "[explanaton]", "id = s", "type = I",
           "type = III", "S1: conditional: ", "S2: categorical: ", "P(X) -> !Q(X).", "P(a)."]


@st.composite
def _scenario_texts(draw) -> str:
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(_PIECES), max_size=40)))
    text = draw(st.sampled_from(_SHIPPED))
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from([piece for piece in _PIECES if len(piece) == 1]))
    edit = draw(st.sampled_from(("insert", "delete", "replace")))
    return text[:at] + ("" if edit == "delete" else char) + text[at + (edit != "insert"):]


@settings(max_examples=150, deadline=None)
@given(_scenario_texts())
def test_check_survives_any_scenario_text(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.scn"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(path)])
    assert code in range(6)
    assert "Traceback" not in err.getvalue()
