import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from revisekit import cli, dsl
from revisekit.errors import ParseError
from revisekit.dsl import parse_base, parse_literals
from revisekit.falappa import kernel_set
from revisekit.revision import WEIGHTED, Explanandum, SelectionStrategy, correction_kernel, revise

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

    @pytest.mark.parametrize("command", ["check", "revise", "kernels"])
    def test_files_keep_a_lone_carriage_return(self, tmp_path, expl_file, capsys, command):
        # lines end at \n only, and \r is a blank: every command reads a file
        # as written, so a position is the one `parse_base` reports on its text
        text = "p(a).\rq(b"
        with pytest.raises(ParseError) as raised:
            parse_base(text)
        assert str(raised.value.span) == "1:10"
        path = tmp_path / "cr.rk"
        path.write_bytes(text.encode())
        argv = {"check": [str(path)], "revise": [str(path), str(expl_file), "!Ins(charlie)"],
                "kernels": [str(path), str(expl_file)]}[command]
        assert cli.main([command, *argv]) == 2
        assert capsys.readouterr().err == "parse error at 1:10: expected rparen, found 'end of input'\n"

    def test_scenario_below_a_comment_holding_a_form_feed(self, tmp_path, capsys):
        # a form feed ends no line, so the comment hides the rest of line 1
        # and the scenario opens on line 2, as `parse_scenario` reads it
        text = "// note\fmore\n" + SCENARIO
        assert dsl.parse_scenario(text).id == "cli-demo"
        path = tmp_path / "s.scn"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["check", str(path)]) == 0
        assert capsys.readouterr().out == "ok: scenario cli-demo (type I)\n"

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


@pytest.mark.parametrize("argv", [
    ["kernels", "rules.rk", "empty.rk"],
    # the explanation's own signature has no constant for its rule
    ["revise", "empty.rk", "why.rk", "S"],
])
def test_rule_over_an_empty_universe_exit_3(tmp_path, capsys, argv):
    texts = {"rules.rk": "P(X) -> Q(X).\n", "empty.rk": "", "why.rk": "S. P(X) -> Q(X).\n"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert cli.main([arg if arg not in texts else str(tmp_path / arg) for arg in argv]) == 3
    assert capsys.readouterr().err == (
        "invalid input: rule P(X) -> Q(X) has variables but the universe is empty\n")


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

    @pytest.mark.parametrize("base, expl", [
        (BASE, EXPL),
        ("P(a). P(a) -> Q(a). P(a) -> R(a).\n", "!Q(a). !R(a).\n"),
        ("Cop(c). Wor(c). Wor(X) -> Ins(X). Fev(c). Fev(X) -> Hot(X). Sug(c).\n",
         "!Cop(c). !Ins(c). !Hot(c).\n"),
    ])
    def test_text_lines_are_the_json_sets(self, tmp_path, capsys, base, expl):
        paths = [tmp_path / "b.rk", tmp_path / "e.rk"]
        for path, text in zip(paths, (base, expl)):
            path.write_text(text, encoding="utf-8")
        assert cli.main(["kernels", *map(str, paths)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert cli.main(["kernels", *map(str, paths), "--format=json"]) == 0
        sets = json.loads(capsys.readouterr().out)["correction_sets"]
        assert len(sets) > 1
        assert lines == ["{" + ", ".join(forms) + "}" for forms in sets]

    @pytest.mark.parametrize("base, expl, counts", [
        ("Wor(c).\n", "Ins(c).\n", {"correction_sets": 0, "muses": 0}),  # consistent
        ("Wor(c).\n", "!Wor(c).\n", {"correction_sets": 2, "muses": 1}),
        ("Wor(c). Wor(c) -> Ins(c). Wor(d). Wor(d) -> Ins(d).\n", "!Ins(c). !Ins(d).\n",
         {"correction_sets": 48, "muses": 2}),
    ])
    @pytest.mark.parametrize("key", ["correction_sets", "muses"])
    def test_json_is_the_document_json_dumps_writes(self, tmp_path, capsys, base, expl, counts, key):
        # the JSON listing is written set by set; its bytes are those of one
        # json.dumps of the whole list
        paths = [tmp_path / "b.rk", tmp_path / "e.rk"]
        for path, text in zip(paths, (base, expl)):
            path.write_text(text, encoding="utf-8")
        flags = ["--muses"] if key == "muses" else []
        assert cli.main(["kernels", *map(str, paths), *flags, "--format=json"]) == 0
        b, e = parse_base(base), parse_base(expl)
        if key == "muses":
            sets = [sorted(el.canonical() for el in kernel) for kernel in kernel_set(b, e)]
        else:
            sets = [[el.canonical() for el in cs] for cs in correction_kernel(b, e)]
        assert len(sets) == counts[key]
        assert capsys.readouterr().out == json.dumps({key: sets}, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_errors_print_no_set(self, tmp_path, base_file, expl_file, capsys, fmt):
        # the text output streams, so each error must come before the first set
        assert cli.main(["kernels", str(base_file), str(expl_file), "--max-ground=1",
                         f"--format={fmt}"]) == 5
        assert capsys.readouterr().out == ""
        (tmp_path / "rules.rk").write_text("P(X) -> Q(X).\n", encoding="utf-8")
        (tmp_path / "empty.rk").write_text("", encoding="utf-8")
        assert cli.main(["kernels", str(tmp_path / "rules.rk"), str(tmp_path / "empty.rk"),
                         f"--format={fmt}"]) == 3
        assert capsys.readouterr().out == ""


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


# --- fuzzing `revise` and `kernels` -------------------------------------------

# statements over two constants, and some that fail: an arity clash with
# P/1, a missing dot, a non-ASCII constant, a repeated statement
_STATEMENTS = ["P(a).", "!P(a).", "P(b).", "Q(a).", "!Q(b).", "R.", "!R.", "S(a, b).",
               "P(X) -> Q(X).", "Q(X) -> !P(X).", "P(X) & S(X, Y) -> Q(Y).", "!R -> R.",
               "P(X) -> R.", "S(X, Y) -> S(Y, X)."]
_BAD_STATEMENTS = ["P(a, b).", "P(X) -> Q(X)", "Q(é).", "P(a). P(a)."]
_EXPLANANDA = ["P(a)", "!Q(a)", "Q(b) & !R", "R & !R", "!P(b) & S(a, b)", "T(c)", "P(X)", "",
               "Q(a) &"]
_WEIGHTS = ['{"P(a)": 2, "P(X) -> Q(X)": -1}', '{"Q(X) -> !P(X)": 0.5}', "{}", "[1]",
            '{"P(a)": "x"}', "nope", '{"R": NaN}']


@st.composite
def _revision_runs(draw) -> tuple[str, str, list[str]]:
    """A base text and an explanation text of at most 8 statements in all,
    and the arguments after the two file paths."""
    statements = draw(st.lists(st.sampled_from(_STATEMENTS), max_size=8, unique=True))
    if statements and draw(st.integers(0, 4)) == 0:
        statements[-1] = draw(st.sampled_from(_BAD_STATEMENTS))
    split = draw(st.integers(0, len(statements)))
    if draw(st.booleans()):
        args = ["kernels"] + (["--muses"] if draw(st.booleans()) else [])
    else:
        args = ["revise", draw(st.sampled_from(_EXPLANANDA)),
                "--operator=" + draw(st.sampled_from(("guided", "falappa")))]
        if draw(st.booleans()):
            args.append("--strategy=" + draw(st.sampled_from(
                [*cli.GUIDED_STRATEGIES, *cli.FALAPPA_STRATEGIES, "interactive"])))
        if draw(st.booleans()):
            args.append("--weights=" + draw(st.sampled_from(_WEIGHTS)))
        if draw(st.booleans()):
            args.append(f"--seed={draw(st.integers(0, 3))}")
    if draw(st.booleans()):
        args.append(f"--max-ground={draw(st.sampled_from((-1, 0, 4, 24, 200)))}")
    args.append("--format=" + draw(st.sampled_from(("text", "json"))))
    return " ".join(statements[:split]), " ".join(statements[split:]), args


@settings(max_examples=120, deadline=None)
@given(_revision_runs())
def test_revise_and_kernels_survive_any_input(tmp_path_factory, run):
    base_text, explanation_text, (command, *rest) = run
    paths = []
    for name, text in (("fuzz_base.rk", base_text), ("fuzz_expl.rk", explanation_text)):
        paths.append(path := tmp_path_factory.getbasetemp() / name)
        path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, *map(str, paths), *rest])
    assert code in range(6)
    assert "Traceback" not in err.getvalue()
    if code == 0 and "--format=json" in rest:
        json.loads(out.getvalue())
