import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glam
from glam import bde as bdemod
from glam import cli, errors
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
    # the recursion limit is raised, and the int digit limit lifted, only
    # for the duration of a guarded call, whether it returns or raises
    out = _run_python(
        "import sys\n"
        "def limits():\n"
        "    return (sys.getrecursionlimit(), sys.get_int_max_str_digits())\n"
        "start = limits()\n"
        "import glam\n"
        "from glam import denot, frontend, machine, typecheck\n"
        "from glam.errors import GlamError\n"
        "from glam.syntax import NAT, Lam, Var, numeral\n"
        "seen = [limits()]\n"
        "for call in (lambda: typecheck.infer({}, numeral(3)),\n"
        "             lambda: typecheck.infer({}, Lam('x', None, Var('x'))),\n"
        "             lambda: denot.den_nat(numeral(3), 2),\n"
        "             lambda: denot.den_nat(numeral(3), 0),\n"
        "             lambda: machine.eval_term(numeral(3)),\n"
        "             lambda: machine.observe_nat(Lam('x', None, Var('x'))),\n"
        "             lambda: frontend.parse_term('(' * 30_000 + '0' + ')' * 30_000),\n"
        "             lambda: frontend.pretty(frontend.parse_term('7' * 5000))):\n"
        "    try:\n"
        "        call()\n"
        "    except GlamError:\n"
        "        pass\n"
        "    seen.append(limits())\n"
        "print(seen == [start] * 9, start, seen)\n"
    )
    assert out.startswith("True "), out


def test_deep_nesting_is_one_line_error(capsys, tmp_path):
    path = tmp_path / "deep.gl"
    path.write_text("def deep : Nat = " + "(" * 30_000 + "0" + ")" * 30_000 + ";")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("NestingTooDeep: ") and err.count("\n") == 1


def test_large_numeral_checks_and_runs(capsys, tmp_path):
    path = tmp_path / "big.gl"
    path.write_text("def big : Nat = 150000;")
    assert main(["check", str(path)]) == 0
    assert main(["run", str(path), "big"]) == 0
    assert capsys.readouterr().out == "big : Nat\n150000\n"
    # a numeral denotes its value at once, as it elaborates and runs
    assert main(["denote", str(path), "big"]) == 0
    assert capsys.readouterr().out == "150000\n"


def _glam(*args):
    """A glam command in a fresh interpreter, cut after 10 s."""
    src = str(Path(glam.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "glam.cli", *args],
                          capture_output=True, text=True, env=env, timeout=10)


def test_numerals_of_any_size_answer_at_once(tmp_path):
    # a numeral is one node, so neither its size nor a product's makes
    # a chain of nodes to build, check or print
    path = str(tmp_path / "big.gl")
    Path(path).write_text("def b : Nat = 99999999999;\ndef m : Nat = mulN 2000 2000;\n")
    for args, out in [
        (["check", path], "b : Nat\nm : Nat\n"),
        (["run", path, "b"], "99999999999\n"),
        (["denote", path, "b"], "99999999999\n"),
        (["run", path, "m"], "4000000\n"),
    ]:
        proc = _glam(*args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, ""), args


# over Python's default limit of 4 300 digits for an int read from or
# written as text
_HUGE = "7" * 5000


def test_numeral_over_the_int_digit_limit_checks_runs_and_denotes(capsys, tmp_path):
    path = tmp_path / "huge.gl"
    path.write_text(f"def h : Nat = {_HUGE};")
    assert main(["check", str(path)]) == 0
    assert main(["run", str(path), "h"]) == 0
    assert main(["denote", str(path), "h"]) == 0
    assert capsys.readouterr() == (f"h : Nat\n{_HUGE}\n{_HUGE}\n", "")


def test_repl_types_a_numeral_over_the_int_digit_limit():
    replies = _repl_replies([f":t {_HUGE}", ":t 3", _HUGE])
    assert replies == ["glam> Nat", "glam> Nat", f"glam> {_HUGE}"]


def test_take_and_denote_print_elements_over_the_int_digit_limit(capsys, tmp_path):
    path = tmp_path / "squares.gl"
    path.write_text("def sq : mu a. Nat * |>a = iterate' (\\x. mulN x x) 2;")
    # 2^2^15 has 9 865 digits: writing them needs the limit lifted, as
    # glam's guard lifts it
    want = errors.nesting_guard(lambda: [str(2 ** 2 ** k) for k in range(16)])()
    assert len(want[-1]) == 9865
    for cmd in ("take", "denote"):
        assert main([cmd, str(path), "sq", "16"]) == 0
        assert capsys.readouterr() == (" ".join(want) + "\n", ""), cmd


def test_non_ascii_digit_is_one_line_parse_error(capsys, tmp_path):
    path = tmp_path / "digit.gl"
    path.write_text("def x : Nat = ²;", encoding="utf-8")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "ParseError: unexpected character '²' (at 1:15)\n"


@pytest.mark.parametrize(
    "src, err",
    [
        (
            "def d : Nat + b = inl 0;",
            "UnboundTypeVar: in definition 'd': unbound type variable 'b' (at 1:5)",
        ),
        (
            "def d : Void = 0;",
            "TypeMismatch: in definition 'd': has type Nat but Void expected (at 1:5)",
        ),
        (
            "def d : mu a. a = fold 0;",
            "UnguardedMu: in definition 'd': recursion variable 'a' is not guarded in a (at 1:5)",
        ),
        # an error with a location of its own keeps it
        (
            "def d : Nat = fst 0;",
            "TypeMismatch: in definition 'd': fst applied to a non-product (at 1:15)",
        ),
    ],
    ids=["unbound-type-var", "mismatch", "unguarded-mu", "own-location"],
)
def test_definition_errors_point_at_the_definition_name(capsys, tmp_path, src, err):
    path = tmp_path / "d.gl"
    path.write_text(src)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == err + "\n"


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
    assert capsys.readouterr().err == (
        "error: [Errno 2] No such file or directory: 'no-such-file.gl'\n"
    )


def _unreadable(tmp_path, kind):
    """A directory, or a file whose bytes are not UTF-8."""
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "latin1.gl"
    path.write_bytes(b"def x : Nat = 0; -- caf\xe9\n")
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
@pytest.mark.parametrize(
    "cmd",
    [["check"], ["run", "x"], ["take", "x"], ["denote", "x"],
     ["bde-compile", "f"], ["bde-run", "f", "zeros"]],
    ids=lambda cmd: cmd[0],
)
def test_unreadable_file_is_one_error_line(capsys, tmp_path, cmd, kind):
    path = _unreadable(tmp_path, kind)
    assert main([cmd[0], path, *cmd[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_repl_load_of_an_unreadable_file_goes_on(tmp_path, kind):
    path = _unreadable(tmp_path, kind)
    out = io.StringIO()
    run_repl(io.StringIO(f":load {path}\n:t fst (1, ())\n"), out)
    lines = out.getvalue().split("\n")[1:]
    assert lines[0].startswith("glam> error: ") and repr(path) in lines[0]
    assert lines[1:] == ["glam> Nat", "glam> "]


@pytest.mark.parametrize("src", ["def x : Nat = 0;\n", "def x : Nat = ();\n"])
def test_leading_byte_order_mark_is_ignored(capsys, tmp_path, src):
    # the same output, error positions included, with and without the mark
    plain, marked = tmp_path / "plain.gl", tmp_path / "marked.gl"
    plain.write_text(src, encoding="utf-8")
    marked.write_text(src, encoding="utf-8-sig")
    code = main(["check", str(plain)])
    want = capsys.readouterr()
    assert main(["check", str(marked)]) == code
    assert capsys.readouterr() == want


def _repl_bytes(data: bytes) -> list:
    out = io.StringIO()
    run_repl(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), out)
    return out.getvalue().split("\n")[1:]


def test_repl_line_that_is_not_utf8_goes_on():
    lines = _repl_bytes(b":t \xff\n:t fst (1, ())\n")
    assert lines == [
        "glam> error: input line is not UTF-8: invalid start byte at byte 3",
        "glam> Nat",
        "glam> ",
    ]


def test_repl_strict_stdin_is_not_a_traceback():
    src = str(Path(glam.__file__).parent.parent)
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "glam.cli", "repl"], input=b":t \xff\n:t 0\n",
        capture_output=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode().split("\n")[1:] == [
        "glam> error: input line is not UTF-8: invalid start byte at byte 3",
        "glam> Nat",
        "glam> ",
    ]


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


def test_repl_stuck_term_is_not_out_of_fuel():
    out = io.StringIO()
    run_repl(io.StringIO("fst 0\n"), out)
    assert out.getvalue().split("\n")[1:] == ["glam> error: stuck after 0 steps", "glam> "]


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


# bde-compile's four lines for every equation of the two .bde programs,
# each after a line "-- programs/<file> <name>"
BDE_GOLDEN = Path(__file__).parent / "bde_compile.golden"


def test_bde_compile_output_is_pinned(capsys):
    lines = BDE_GOLDEN.read_text().splitlines(keepends=True)
    seen = []
    for at in range(0, len(lines), 5):
        path, name = lines[at].split()[1:]
        assert main(["bde-compile", str(PROGRAMS.parent / path), name]) == 0
        assert capsys.readouterr().out == "".join(lines[at + 1:at + 5]), (path, name)
        seen.append((path, name))
    assert seen == [(f"programs/{f}", d.name) for f in ("streams.bde", "rutten.bde")
                    for d in bdemod.parse_bde((PROGRAMS / f).read_text())]


def test_bde_run_match(capsys):
    assert main(
        ["bde-run", str(PROGRAMS / "streams.bde"), "times", "toggle", "toggle", "--n", "6"]
    ) == 0
    out = capsys.readouterr().out
    assert "MATCH" in out and "2 2 2" in out


def test_bde_run_unknown_arg(capsys):
    assert main(["bde-run", str(PROGRAMS / "streams.bde"), "plus", "bogus", "zeros"]) == 1


def test_bde_run_unknown_equation(capsys):
    assert main(["bde-run", str(PROGRAMS / "streams.bde"), "nosuch", "zeros"]) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == "BdeError: no equation named 'nosuch'\n"


def test_bde_run_nats_argument(capsys):
    argv = ["bde-run", str(PROGRAMS / "streams.bde"), "plus", "nats", "toggle", "--n", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "i compiled oracle\n0 1 1\n1 1 1\n2 3 3\nMATCH\n"


def test_bde_run_reports_a_mismatch(capsys, monkeypatch):
    # the table and the verdict when the oracle disagrees with the compiled term
    monkeypatch.setattr(bdemod, "oracle_eval", lambda defs, name, args, n: [0, 7][:n])
    argv = ["bde-run", str(PROGRAMS / "streams.bde"), "plus", "toggle", "zeros", "--n", "2"]
    assert main(argv) == 1
    assert capsys.readouterr().out == "i compiled oracle\n0 1 0\n1 0 7\nMISMATCH\n"


def test_denote_refuses_a_function_by_its_type(capsys):
    assert main(["denote", str(PRELUDE_PATH), "pred"]) == 1
    assert capsys.readouterr().err == (
        "Error: denote handles Nat and stream definitions, "
        "not #(mu a. Unit + |>a) -> Unit + #(mu a. Unit + |>a)\n"
    )


def test_primitive_cannot_be_redefined(capsys, tmp_path):
    path = tmp_path / "prim.gl"
    path.write_text("def addN : Nat = 0;")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == "ParseError: cannot redefine primitive 'addN' (at 1:5)\n"


@pytest.mark.parametrize("streams", [["toggle"], ["toggle", "toggle", "zeros"]])
def test_bde_run_refuses_a_wrong_number_of_streams(capsys, streams):
    argv = ["bde-run", str(PROGRAMS / "streams.bde"), "plus", *streams, "--n", "4"]
    assert main(argv) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == f"BdeError: 'plus' has arity 2, given {len(streams)} streams\n"


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


def _repl_replies(lines):
    """The REPL's reply to each line, after the banner."""
    out = io.StringIO()
    run_repl(io.StringIO("\n".join(lines) + "\n"), out)
    return out.getvalue().split("\n")[1:-1]


def test_repl_command_without_its_argument_prints_its_usage():
    lines = [":t", ":step", ":take", ":den", ":load", ":bogus", ":q"]
    assert _repl_replies(lines) == [
        "glam> error: usage: :t e",
        "glam> error: usage: :step e",
        "glam> error: usage: :take n e",
        "glam> error: usage: :den i e",
        "glam> error: usage: :load f",
        "glam> unknown command ':bogus'",
    ]


# REPL lines that no well-typed program or file reaches: each ends in one
# error line, and a blank line prints nothing.
_REPL_ERRORS = [
    (":take 1 succ ()", "Stuck: stuck term: succ of a non-numeral"),
    (":take 1 abort ()", "Stuck: stuck term: abort"),
    (":take 1 (\\x:Nat. x) <*> next 0", "Stuck: stuck term: <*> of a non-next value"),
    (":den 2 (boxp (inl[Nat+Nat] 0) : Nat)",
     "TypeMismatch: boxp must produce a sum of # types (at 1:2)"),
    # well typed, but neither Nat nor a stream: refused as glam denote refuses it
    (":den 2 boxp (inl[Nat+Nat] 0)",
     "Error: denote handles Nat and stream definitions, not #Nat + #Nat"),
    (":t prev{x<-0, x<-1}. x", "ParseError: duplicate variable x in substitution (at 1:12)"),
    (":t prev{x<-0;}. x", "ParseError: expected ',' or '}' in substitution (at 1:10)"),
    (":t inl[] 0", "ParseError: expected a type, found ']' (at 1:5)"),
    (":t )", "ParseError: expected a term, found ')' (at 1:1)"),
    (":t 0 )", "ParseError: unexpected ')' after term (at 1:3)"),
]


def test_repl_errors_of_ill_formed_input():
    lines = [line for line, _ in _REPL_ERRORS]
    want = [f"glam> {err}" for _, err in _REPL_ERRORS]
    assert _repl_replies(["", *lines, ":q"]) == ["glam> " + want[0], *want[1:]]


def test_repl_eof_exits():
    out = io.StringIO()
    run_repl(io.StringIO(""), out)
    assert "glam repl" in out.getvalue()


# The code of every error class, as the CLI and the REPL print it.
ERROR_CODES = {
    "GlamError": "Error",
    "ParseError": "ParseError",
    "TypingError": "TypingError",
    "UnboundTypeVar": "UnboundTypeVar",
    "UnguardedMu": "UnguardedMu",
    "OpenBox": "OpenBox",
    "TypeMismatch": "TypeMismatch",
    "NonConstantSubstType": "NonConstantSubstType",
    "EscapingVariable": "EscapingVariable",
    "CannotSynthesize": "CannotSynthesize",
    "UnboundVariable": "UnboundVariable",
    "MachineError": "MachineError",
    "FuelExhaustedError": "FuelExhausted",
    "StuckError": "Stuck",
    "NestingTooDeep": "NestingTooDeep",
    "DenotError": "DenotError",
    "IndexZero": "IndexZero",
    "DepthExceeded": "DepthExceeded",
    "BdeError": "BdeError",
    "UnknownSymbol": "UnknownSymbol",
    "BadVariable": "BadVariable",
    "ForwardReference": "ForwardReference",
}


def test_every_error_class_keeps_its_code():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.GlamError)]
    assert {c.__name__: c.code for c in classes} == ERROR_CODES
    assert issubclass(cli.CliError, errors.GlamError)
    assert cli.CliError("x").render() == "error: x"


def test_closed_output_pipe_ends_quietly():
    src = str(Path(glam.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "glam.cli", "take", str(PRELUDE_PATH), "zeros", "200000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(10) == b"0 0 0 0 0 "
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize("repl, cmd", [(":take 2", "take"), (":den 2", "denote")])
@pytest.mark.parametrize(
    "ty, src",
    [("Nat", "succ 0"), ("Nat -> Nat", "\\x:Nat. x"), ("Nat * |>(mu a. Nat * |>a)", "unfold zeros")],
)
def test_repl_reads_a_typed_term_as_the_subcommands_do(capsys, tmp_path, repl, cmd, ty, src):
    # the same check and the same line, refusal or value, as take and denote
    path = tmp_path / "d.gl"
    path.write_text(f"def d : {ty} = {src};")
    main([cmd, str(path), "d", "2"])
    out, err = capsys.readouterr()
    assert _repl_replies([f"{repl} {src}"]) == ["glam> " + (out + err).rstrip("\n")]


def test_repl_takes_a_term_infer_refuses_as_a_stream():
    assert _repl_replies([":take 3 (\\x. x) zeros"]) == ["glam> 0 0 0"]


# Counts, stages and fuel are ASCII digits, perhaps between blanks, as
# program numerals are; each reader refuses any other text in its words.
@pytest.mark.parametrize("reader", ["argument", "GLAM_FUEL", "repl"])
@pytest.mark.parametrize(
    "text, ok",
    [("3", True), (" 3 ", True), ("03", True), ("1_0", False), ("\u0663", False),
     ("+3", False), ("-3", False), ("3.0", False), ("\u00b2", False), ("three", False),
     # past Python's default limit of 4 300 digits for an int read from text
     pytest.param("0" * 4999 + "3", True, id="5000-digits")],
)
def test_counts_stages_and_fuel_are_ascii_digits(capsys, monkeypatch, reader, text, ok):
    if reader == "argument":
        code = main(["take", str(PRELUDE_PATH), "zeros", text])
        out, err = capsys.readouterr()
        if not ok:
            why = "must be a non-negative integer, not" if text == "-3" else "invalid int value:"
            assert (code, out) == (2, "")
            assert f"error: argument count: {why} {text!r}\n" in err
        else:
            assert (code, out, err) == (0, "0 0 0\n", "")
    elif reader == "GLAM_FUEL":
        # paperfolds needs more than 3 steps, so a fuel of 3 runs out at 3
        monkeypatch.setenv("GLAM_FUEL", text)
        assert main(["run", str(PRELUDE_PATH), "paperfolds"]) == 1
        assert capsys.readouterr().err == (
            "error: fuel exhausted after 3 steps\n" if ok
            else f"Error: GLAM_FUEL must be a non-negative integer, not {text!r}\n"
        )
    else:
        reply = "0 0 0" if ok else "error: usage: :take n e"
        assert _repl_replies([f":take {text} zeros"]) == [f"glam> {reply}"]
