import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glam
from glam.cli import main, run_repl
from glam.prelude import PRELUDE_PATH

PROGRAMS = Path(__file__).parent.parent / "programs"


def test_check_prelude(capsys):
    assert main(["check", str(PRELUDE_PATH)]) == 0
    out = capsys.readouterr().out
    assert "toggle : mu a. Nat * |>a" in out
    assert "pred : #(mu a. Unit + |>a) -> Unit + #(mu a. Unit + |>a)" in out


def test_module_entry_point(capsys):
    # python -m glam.cli runs the same CLI as main()
    src = str(Path(glam.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "glam.cli", "check", str(PRELUDE_PATH)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert main(["check", str(PRELUDE_PATH)]) == 0
    assert proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out


def _run_python(code: str) -> str:
    """The stdout of a fresh interpreter running code with glam importable."""
    src = str(Path(glam.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_record_generator():
    out = _run_python(
        "import sys, glam.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    assert out == "[]\n"


def test_glam_leaves_the_recursion_limit_alone():
    # the limit is raised only for the duration of a guarded call,
    # whether it returns or raises
    out = _run_python(
        "import sys\n"
        "start = sys.getrecursionlimit()\n"
        "import glam\n"
        "from glam import denot, frontend, machine, typecheck\n"
        "from glam.errors import GlamError\n"
        "from glam.syntax import NAT, Lam, Var, numeral\n"
        "seen = [sys.getrecursionlimit()]\n"
        "for call in (lambda: typecheck.infer({}, numeral(3)),\n"
        "             lambda: typecheck.infer({}, Lam('x', None, Var('x'))),\n"
        "             lambda: denot.den_nat(numeral(3), 2),\n"
        "             lambda: denot.den_nat(numeral(3), 0),\n"
        "             lambda: machine.eval_term(numeral(3)),\n"
        "             lambda: machine.observe_nat(Lam('x', None, Var('x'))),\n"
        "             lambda: frontend.parse_term('(' * 30_000 + '0' + ')' * 30_000)):\n"
        "    try:\n"
        "        call()\n"
        "    except GlamError:\n"
        "        pass\n"
        "    seen.append(sys.getrecursionlimit())\n"
        "print(start, seen)\n"
    )
    start, seen = out.split(" ", 1)
    assert seen.strip() == "[" + ", ".join([start] * 8) + "]"


def test_deep_nesting_is_one_line_error(capsys, tmp_path):
    path = tmp_path / "deep.gl"
    path.write_text("def deep : Nat = " + "(" * 30_000 + "0" + ")" * 30_000 + ";")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("NestingTooDeep: ") and err.count("\n") == 1


def test_non_ascii_digit_is_one_line_parse_error(capsys, tmp_path):
    path = tmp_path / "digit.gl"
    path.write_text("def x : Nat = ²;", encoding="utf-8")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "ParseError: unexpected character '²' (at 1:15)\n"


def test_take_toggle(capsys):
    assert main(["take", str(PRELUDE_PATH), "toggle", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1 0 1 0"


def test_take_flag_form(capsys):
    assert main(["take", str(PRELUDE_PATH), "paperfolds", "--n", "8"]) == 0
    assert capsys.readouterr().out.strip() == "1 1 0 1 1 0 0 1"


@pytest.mark.parametrize(
    "path, name, ty",
    [
        (PRELUDE_PATH, "hdg", "(mu a. Nat * |>a) -> Nat"),
        (PROGRAMS / "demo.gl", "answer", "Nat"),
    ],
)
def test_take_rejects_a_non_stream_by_its_type(capsys, path, name, ty):
    # refused before it runs, not stuck on the machine
    assert main(["take", str(path), name, "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"Error: take handles stream definitions, not {ty}\n"


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


def test_bad_fuel_env_is_one_line_error(monkeypatch, capsys):
    for bad in ("abc", "-3"):
        monkeypatch.setenv("GLAM_FUEL", bad)
        assert main(["take", str(PRELUDE_PATH), "toggle", "2"]) == 1
        err = capsys.readouterr().err
        assert err == f"Error: GLAM_FUEL must be a non-negative integer, not {bad!r}\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        # a given 0 is used, not replaced by the default
        (["take", "toggle", "0"], 0, "\n", ""),
        (["take", "toggle", "--n", "0"], 0, "\n", ""),
        (["denote", "toggle", "0"], 1, "", "IndexZero: "),
        (["denote", "toggle", "--index", "0"], 1, "", "IndexZero: "),
        (["run", "toggle", "--fuel", "0"], 1, "", "error: fuel exhausted after 0 steps"),
    ],
)
def test_zero_arguments_are_kept(capsys, argv, code, out, err):
    assert main([argv[0], str(PRELUDE_PATH), *argv[1:]]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err.startswith(err)


@pytest.mark.parametrize(
    "argv, arg",
    [
        (["take", str(PRELUDE_PATH), "toggle", "-3"], "count"),
        (["take", str(PRELUDE_PATH), "toggle", "--n", "-3"], "--n"),
        (["take", str(PRELUDE_PATH), "toggle", "--fuel", "-3"], "--fuel"),
        (["run", str(PRELUDE_PATH), "toggle", "--fuel", "-3"], "--fuel"),
        (["denote", str(PRELUDE_PATH), "toggle", "-2"], "stage"),
        (["denote", str(PRELUDE_PATH), "toggle", "--index", "-2"], "--index"),
        (["bde-run", str(PROGRAMS / "streams.bde"), "plus", "zeros", "zeros", "--n", "-1"], "--n"),
        (["bde-run", str(PROGRAMS / "streams.bde"), "plus", "zeros", "zeros", "--fuel", "-1"], "--fuel"),
    ],
)
def test_negative_arguments_are_usage_errors(capsys, argv, arg):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {arg}: must be a non-negative integer, not '-" in captured.err


def test_non_integer_argument_message_is_unchanged(capsys):
    assert main(["take", str(PRELUDE_PATH), "toggle", "--n", "abc"]) == 2
    assert "error: argument --n: invalid int value: 'abc'" in capsys.readouterr().err


def test_bde_run_zero_rows(capsys):
    argv = ["bde-run", str(PROGRAMS / "streams.bde"), "plus", "zeros", "zeros", "--n", "0"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "i compiled oracle\nMATCH\n"


def test_repl_zero_fuel():
    out = io.StringIO()
    run_repl(io.StringIO("addN 1 1\n"), out, fuel=0)
    assert "error: no value after 0 steps" in out.getvalue()


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
        # malformed commands print one error line and the session goes on
        ":take abc zeros",
        ":take 3",
        ":den x zeros",
        # a term that does not synthesize is denoted as a stream
        ":den 2 (\\s. s) zeros",
        ":den 2 \\x. x",
        ":load no-such-file.gl",
        ":take 2 toggle",
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
    assert text.count("error: usage: :take n e\n") == 2
    assert "error: usage: :den i e\n" in text
    assert (
        "glam> CannotSynthesize: cannot synthesize the type of an unannotated lambda (at 1:2)\n"
        "glam> TypeMismatch: lambda where a non-function is expected (at 1:1)\n"
    ) in text
    assert "error: [Errno 2] No such file or directory: 'no-such-file.gl'\n" in text
    assert text.endswith("glam> 1 0\nglam> ")


def test_repl_eof_exits():
    out = io.StringIO()
    run_repl(io.StringIO(""), out)
    assert "glam repl" in out.getvalue()
