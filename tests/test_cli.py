import io
from pathlib import Path

import pytest

from glam.cli import main, run_repl
from glam.prelude import PRELUDE_PATH

PROGRAMS = Path(__file__).parent.parent / "programs"


def test_check_prelude(capsys):
    assert main(["check", str(PRELUDE_PATH)]) == 0
    out = capsys.readouterr().out
    assert "toggle : mu a. Nat * |>a" in out
    assert "pred : #(mu a. Unit + |>a) -> Unit + #(mu a. Unit + |>a)" in out


def test_take_toggle(capsys):
    assert main(["take", str(PRELUDE_PATH), "toggle", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1 0 1 0"


def test_take_flag_form(capsys):
    assert main(["take", str(PRELUDE_PATH), "paperfolds", "--n", "8"]) == 0
    assert capsys.readouterr().out.strip() == "1 1 0 1 1 0 0 1"


def test_denote_zeros(capsys):
    assert main(["denote", str(PRELUDE_PATH), "zeros", "3"]) == 0
    assert capsys.readouterr().out.strip() == "0 0 0"


def test_take_equals_denote_for_prelude_streams(capsys):
    for name in ("zeros", "toggle", "paperfolds"):
        for n in range(1, 9):
            main(["take", str(PRELUDE_PATH), name, str(n)])
            took = capsys.readouterr().out.strip()
            main(["denote", str(PRELUDE_PATH), name, str(n)])
            assert capsys.readouterr().out.strip() == took


def test_run_value(capsys):
    assert main(["run", str(PRELUDE_PATH), "cozero"]) == 0
    assert capsys.readouterr().out.strip() == "fold inl ()"


def test_check_badfolds_rejected(capsys):
    assert main(["check", str(PROGRAMS / "badfolds.gl")]) == 1
    err = capsys.readouterr().err
    assert "TypeMismatch" in err


@pytest.mark.parametrize("cmd", [["run"], ["take", "6"], ["denote"]])
def test_ill_typed_file_rejected_before_running(capsys, cmd):
    # run, take and denote type-check the file first, as check does
    argv = [cmd[0], str(PROGRAMS / "badfolds.gl"), "badfolds", *cmd[1:]]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("TypeMismatch: in definition 'badfolds'")
    assert captured.out == ""


def test_usage_error_exit_two(capsys):
    assert main(["take"]) == 2
    assert main(["frobnicate"]) == 2


def test_missing_file(capsys):
    assert main(["check", "no-such-file.gl"]) == 1


def test_missing_definition(capsys):
    assert main(["run", str(PRELUDE_PATH), "nonexistent"]) == 1


def test_fuel_flag(capsys):
    assert main(["run", str(PRELUDE_PATH), "paperfolds", "--fuel", "2"]) == 1
    assert "fuel" in capsys.readouterr().err


def test_take_fuel_flag(capsys):
    # take's fuel bounds each observation of its call-by-need evaluator
    assert main(["take", str(PRELUDE_PATH), "paperfolds", "4", "--fuel", "2"]) == 1
    assert capsys.readouterr().err.startswith("FuelExhausted: ")


def test_fuel_env(monkeypatch, capsys):
    monkeypatch.setenv("GLAM_FUEL", "2")
    assert main(["run", str(PRELUDE_PATH), "paperfolds"]) == 1
    monkeypatch.delenv("GLAM_FUEL")


def test_demo_program(capsys):
    assert main(["check", str(PROGRAMS / "demo.gl")]) == 0
    capsys.readouterr()
    assert main(["denote", str(PROGRAMS / "demo.gl"), "answer", "1"]) == 0
    assert capsys.readouterr().out.strip() == "42"
    assert main(["take", str(PROGRAMS / "demo.gl"), "squares", "6"]) == 0
    assert capsys.readouterr().out.strip() == "0 1 4 9 16 25"
    assert main(["denote", str(PROGRAMS / "demo.gl"), "evens", "5"]) == 0
    assert capsys.readouterr().out.strip() == "0 2 4 6 8"


def test_bde_compile(capsys):
    assert main(["bde-compile", str(PROGRAMS / "streams.bde"), "plus"]) == 0
    out = capsys.readouterr().out
    assert "guarded : (mu a. Nat * |>a) -> (mu a. Nat * |>a) -> mu a. Nat * |>a" in out
    assert "lifted : #(mu a. Nat * |>a) -> #(mu a. Nat * |>a) -> #(mu a. Nat * |>a)" in out


def test_bde_run_match(capsys):
    assert main(
        ["bde-run", str(PROGRAMS / "streams.bde"), "times", "toggle", "toggle", "--n", "6"]
    ) == 0
    out = capsys.readouterr().out
    assert "MATCH" in out and "2 2 2" in out


def test_bde_run_unknown_arg(capsys):
    assert main(["bde-run", str(PROGRAMS / "streams.bde"), "plus", "bogus", "zeros"]) == 1


def test_repl_session():
    lines = [
        ":t toggle",
        ":take 4 paperfolds",
        ":den 3 zeros",
        ":den 1 (addN 2 2)",
        ":step fst (1, 2)",
        "hdg toggle",
        f":load {PROGRAMS / 'demo.gl'}",
        ":take 3 squares",
        ":bogus",
        ":t missing_name",
        ":q",
    ]
    out = io.StringIO()
    run_repl(io.StringIO("\n".join(lines) + "\n"), out)
    text = out.getvalue()
    assert "mu a. Nat * |>a" in text
    assert "1 1 0 1" in text
    assert "0 0 0" in text
    assert "glam> 4" in text  # :den 1 (addN 2 2)
    assert "glam> 1" in text  # hdg toggle
    assert "loaded 4 definitions" in text
    assert "0 1 4" in text
    assert "unknown command" in text
    assert "ParseError" in text


def test_repl_eof_exits():
    out = io.StringIO()
    run_repl(io.StringIO(""), out)
    assert "glam repl" in out.getvalue()
