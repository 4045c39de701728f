import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import textwrap
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from flagheight import cli, height, jantzen
from flagheight.cli import (
    EXIT_CAP,
    EXIT_CROSSCHECK,
    EXIT_MATH,
    EXIT_OK,
    EXIT_PARSE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_height_p1(capsys):
    code, out, _ = run(capsys, "height", "--group", "A1",
                       "--theta", "", "--lambda", "1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["height"] == {"num": "1", "den": "2"}
    assert doc["methods_agreed"] is True
    assert doc["dim"] == 1
    assert doc["cor82_ok"] is True


def test_height_quadric_b2(capsys):
    code, out, _ = run(capsys, "height", "--group", "B2",
                       "--theta", "2", "--lambda", "1,0", "--method", "all")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["height"] == {"num": "17", "den": "3"}
    assert doc["coxeter"] == 4


def test_all_methods_with_paired_and_unpaired_y(capsys):
    # w0 Y = -Y for the default Y of A4, and not for Y = (2, 3, 4, 5)
    heights = []
    for y in ((), ("--y", "2,3,4,5")):
        code, out, _ = run(capsys, "height", "--group", "A4", "--theta", "",
                           "--lambda", "1,1,1,1", *y)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["methods_agreed"] is True
        heights.append(doc["height"])
    assert heights[0] == heights[1]


def test_json_schema_fields(capsys):
    _, out, _ = run(capsys, "height", "--group", "A2",
                    "--theta", "", "--lambda", "1,1")
    doc = json.loads(out)
    assert set(doc) == {"group", "theta", "lambda", "dim", "height",
                        "methods_agreed", "coxeter", "cor82_ok",
                        "conjecture_ok", "elapsed_ms"}


def test_deterministic_apart_from_elapsed(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "height", "--group", "B2",
                        "--theta", "", "--lambda", "2,1")
        outs.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out))
    assert outs[0] == outs[1]


def test_single_method(capsys):
    code, out, _ = run(capsys, "height", "--group", "A2", "--theta", "2",
                       "--lambda", "1,0", "--method", "substitution")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["height"] == {"num": "5", "den": "4"}
    assert doc["methods_agreed"] is None


def test_y_override(capsys):
    code, out, _ = run(capsys, "height", "--group", "A2", "--theta", "",
                       "--lambda", "1,1", "--method", "fixed-point",
                       "--y", "1,3")
    assert code == EXIT_OK
    base = run(capsys, "height", "--group", "A2", "--theta", "",
               "--lambda", "1,1", "--method", "substitution")[1]
    assert json.loads(out)["height"] == json.loads(base)["height"]


def test_bwb_singular_and_regular(capsys):
    code, out, _ = run(capsys, "bwb", "--group", "A1", "--lambda", "-1")
    assert code == EXIT_OK
    assert json.loads(out)["singular"] is True
    code, out, _ = run(capsys, "bwb", "--group", "A1", "--lambda", "-3")
    doc = json.loads(out)
    assert doc["degree"] == 1 and doc["lambda0"] == [1] and doc["dim"] == 2


def test_dim_and_char(capsys):
    _, out, _ = run(capsys, "dim", "--group", "G2", "--lambda", "0,1")
    assert json.loads(out)["dim"] == 14
    _, out, _ = run(capsys, "char", "--group", "A2", "--lambda", "1,1")
    doc = json.loads(out)
    assert doc["dim"] == 8
    assert {"weight": [0, 0], "mult": 2} in doc["weights"]


def test_jantzen_rhs(capsys):
    _, out, _ = run(capsys, "jantzen-rhs", "--group", "A1",
                    "--theta", "", "--lambda", "3")
    doc = json.loads(out)
    assert doc["lambda0_component_zero"] is True
    assert doc["primes"] == {"3": [{"weight": [-1], "coeff": 1},
                                   {"weight": [1], "coeff": 1}]}


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "--group", "A2", "--output", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + two maximal parabolics
    assert lines[0].startswith("group,")


_SKEWED_RHO = textwrap.dedent("""
    import sys
    from flagheight import cli
    from flagheight.rootsys import build_root_system

    class Skewed:
        # the root system with rho doubled: Weyl dimensions and Freudenthal
        # multiplicities computed from it are not integers
        def __init__(self, rs):
            self._rs = rs
            self.rho = tuple(2 * r for r in rs.rho)

        def __getattr__(self, name):
            return getattr(self._rs, name)

    cli.build_root_system = lambda spec: Skewed(build_root_system(spec))
    sys.exit(cli.main(sys.argv[1:]))
""")


def test_integrality_checks_survive_python_O():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for argv, what in [(["dim", "--lambda", "1,0"], "Weyl dimension"),
                       (["char", "--lambda", "1,1"], "Freudenthal")]:
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _SKEWED_RHO, argv[0],
             "--group", "A2", *argv[1:]],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_CROSSCHECK, proc.stderr
        assert what in proc.stderr and "not an integer" in proc.stderr
        assert proc.stdout == ""


_BAD_WEYL_ORDER = textwrap.dedent("""
    import sys
    from flagheight import cli, weyl

    # an order that no coset count divides
    weyl.weyl_order = lambda rs: 7
    sys.exit(cli.main(sys.argv[1:]))
""")


def test_coset_count_check_survives_python_O():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BAD_WEYL_ORDER, "height",
         "--group", "A2", "--theta", "", "--lambda", "1,1"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_CROSSCHECK, proc.stderr
    assert "do not divide |W| = 7" in proc.stderr
    assert proc.stdout == ""


_WRONG_HARMO_BOTT = textwrap.dedent("""
    import sys
    from flagheight import cli, height

    right = height._harmo_bott_kernel

    def wrong(N, L):
        # K_0 one too large: the lists differ, so --method all exits 5
        coeffs = right(N, L)
        coeffs[0] += 1
        return coeffs

    height._harmo_bott_kernel = wrong
    sys.exit(cli.main(sys.argv[1:]))
""")


def _disagree(*argv):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run(
        [sys.executable, "-c", _WRONG_HARMO_BOTT, "height", *argv],
        env=env, capture_output=True, text=True, timeout=60)


def test_method_disagreement_diagnostic():
    # -1 is in the Weyl group of B2, so every Y pairs w with w0 w
    proc = _disagree("--group", "B2", "--theta", "2", "--lambda", "1,0",
                     "--y", "1/2,3")
    assert proc.returncode == EXIT_CROSSCHECK, proc.stderr
    assert proc.stdout == ""
    error, diagnostic = proc.stderr.splitlines()
    assert error.startswith("error: height methods disagree")
    doc = json.loads(diagnostic)
    assert doc["group"] == "B2" and doc["theta"] == [2]
    assert doc["lambda"] == [1, 0]
    assert doc["y"] == [{"num": "1", "den": "2"}, {"num": "3", "den": "1"}]
    assert doc["substitution"] == {"num": "17", "den": "3"}
    assert doc["fixed_point"] == {"num": "17", "den": "3"}
    assert doc["harmo_bott"] == {"num": "6", "den": "1"}
    assert doc["w0_paired"] is True


def test_method_disagreement_diagnostic_unpaired():
    # on A2, w0 swaps alpha_1 and alpha_2 up to sign: Y = (1, 2) is not paired
    proc = _disagree("--group", "A2", "--theta", "", "--lambda", "1,1",
                     "--y", "1,2")
    assert proc.returncode == EXIT_CROSSCHECK, proc.stderr
    doc = json.loads(proc.stderr.splitlines()[1])
    assert doc["w0_paired"] is False
    assert doc["fixed_point"] == doc["substitution"] != doc["harmo_bott"]


def test_method_all_runs_one_localisation_pass(capsys, monkeypatch):
    # equal fixed-point and harmo-bott lists share one pass; a second runs
    # only for the diagnostic of lists that differ
    passes = []
    right_pass = height._localization_pass

    def counted(*args):
        passes.append(args)
        return right_pass(*args)

    monkeypatch.setattr(height, "_localization_pass", counted)
    argv = ("height", "--group", "B2", "--theta", "2", "--lambda", "1,0",
            "--method", "all")
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK and len(passes) == 1
    right_kernel = height._harmo_bott_kernel
    monkeypatch.setattr(height, "_harmo_bott_kernel", lambda N, L: [
        c + (l == 0) for l, c in enumerate(right_kernel(N, L))])
    passes.clear()
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_CROSSCHECK and len(passes) == 2


def test_substitution_disagreement_diagnostic(capsys, monkeypatch):
    # substitution alone one too large: --method all exits 5 and names it
    right = height.height_substitution
    monkeypatch.setattr(height, "height_substitution", lambda pd, lam:
                        height.HeightResult(right(pd, lam).value + 1))
    code, out, err = run(capsys, "height", "--group", "B2", "--theta", "2",
                         "--lambda", "1,0", "--method", "all")
    assert code == EXIT_CROSSCHECK and out == ""
    error, diagnostic = err.splitlines()
    assert error.startswith("error: height methods disagree")
    doc = json.loads(diagnostic)
    assert doc["substitution"] == {"num": "20", "den": "3"}
    assert doc["fixed_point"] == doc["harmo_bott"] == \
        {"num": "17", "den": "3"}


_AFTER_STDIN_EOF = textwrap.dedent("""
    import sys
    from flagheight import cli

    sys.stdin.read()  # wait until the reader of stdout has gone
    sys.exit(cli.main(sys.argv[1:]))
""")


def test_closed_stdout_is_not_an_error():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen(
        [sys.executable, "-c", _AFTER_STDIN_EOF, "scan", "--group", "G2",
         "--output", "text"],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    proc.stdin.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK, err
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_cache_dir_is_gone(capsys):
    assert run(capsys, "height", "--group", "A1", "--theta", "",
               "--lambda", "1", "--cache-dir", "x")[0] == EXIT_PARSE


def test_check_conjecture_is_gone(capsys):
    # conjecture_ok and coxeter, in every output, say what its note said
    code, out, _ = run(capsys, "scan", "--group", "A2", "--output", "text",
                       "--check-conjecture")
    assert code == EXIT_PARSE and out == ""


def test_print_numbering(capsys):
    code, out, _ = run(capsys, "height", "--group", "B2", "--print-numbering")
    assert code == EXIT_OK
    assert "B2" in out


_SCAN_A2_TEXT = """\
group           A2
theta           2
lambda          1,0
dim             2
height          5/4
methods_agreed  True
coxeter         3
cor82_ok        True
conjecture_ok   True
elapsed_ms      0

group           A2
theta           1
lambda          0,1
dim             2
height          5/4
methods_agreed  True
coxeter         3
cor82_ok        True
conjecture_ok   True
elapsed_ms      0

"""

_SCAN_A2_CSV = (
    "group,theta,lambda,dim,height_num,height_den,methods_agreed,coxeter,"
    "cor82_ok,conjecture_ok,elapsed_ms\r\n"
    'A2,2,"1,0",2,5,4,True,3,True,True,0\r\n'
    'A2,1,"0,1",2,5,4,True,3,True,True,0\r\n')


def test_scan_outputs_and_numbering_are_pinned(capsys):
    # elapsed_ms, zeroed, ends each text record and each csv row
    for fmt, elapsed, want in (("text", r"(?m)^(elapsed_ms +)\d+$",
                                _SCAN_A2_TEXT),
                               ("csv", r"(?m)(,)\d+(?=\r$)", _SCAN_A2_CSV)):
        code, out, _ = run(capsys, "scan", "--group", "A2", "--output", fmt)
        assert code == EXIT_OK
        assert re.sub(elapsed, r"\g<1>0", out) == want
    # the numbering is printed before any other option is read
    code, out, _ = run(capsys, "height", "--group", "B2", "--print-numbering",
                       "--lambda", "x")
    assert (code, out) == (
        EXIT_OK, "B2: simple roots 1, 2 (chain, last root short)\n")
    assert run(capsys, "height", "--group", "Q9",
               "--print-numbering")[0] == EXIT_PARSE


def test_parse_errors(capsys):
    assert run(capsys, "height", "--group", "Q9", "--theta", "",
               "--lambda", "1")[0] == EXIT_PARSE
    assert run(capsys, "height", "--group", "A1", "--theta", "",
               "--lambda", "x")[0] == EXIT_PARSE
    assert run(capsys, "height", "--group", "A1")[0] == EXIT_PARSE \
        or run(capsys, "height", "--group", "A1", "--theta", "",
               "--lambda", "")[0] == EXIT_MATH


def test_answers_beyond_the_digit_limit_print_in_full(capsys):
    """The interpreter refuses to write an int of more digits than
    sys.get_int_max_str_digits() (4300 by default); main lifts that limit
    for its answers, and puts it back."""
    limit = sys.get_int_max_str_digits()
    nines = "9" * 4000
    code, out, err = run(capsys, "dim", "--group", "E8",
                         "--lambda", nines + ",0,0,0,0,0,0,0")
    assert (code, err) == (EXIT_OK, "")
    assert len(re.search(r'"dim": (\d+)', out).group(1)) == 311921
    # the height of O(lambda) on P^1 is lambda^2 / 2, and
    # (10^4000 - 1)^2 = 10^8000 - 2 10^4000 + 1
    code, out, err = run(capsys, "height", "--group", "A1", "--theta", "",
                         "--lambda", nines)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["height"] == {
        "num": "9" * 3999 + "8" + "0" * 3999 + "1", "den": "2"}
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("option,value", [
    ("--lambda", "1" * (sys.get_int_max_str_digits() + 1)),
    ("--y", "1," + "1" * (sys.get_int_max_str_digits() + 1)),
    # an exponent would build 10^30000000 with no digit check
    ("--y", "1e30000000"),
    ("--y", "1,2E-30000000"),
])
def test_options_beyond_the_digit_limit_are_refused(capsys, option, value):
    limit = sys.get_int_max_str_digits()
    argv = {"--theta": "", "--lambda": "1,1", "--y": "1,2"}
    argv[option] = value
    code, out, err = run(capsys, "height", "--group", "A2",
                         *(t for item in argv.items() for t in item))
    kind = "integers" if option == "--lambda" else "rationals"
    assert (code, out, err) == (
        EXIT_PARSE, "",
        f"error: cannot parse {option} {value!r} as comma list of {kind}\n")
    assert sys.get_int_max_str_digits() == limit


def test_math_errors(capsys):
    # non-ample weight
    assert run(capsys, "height", "--group", "B2", "--theta", "1",
               "--lambda", "1,0")[0] == EXIT_MATH
    # wrong lambda length
    assert run(capsys, "height", "--group", "A2", "--theta", "",
               "--lambda", "1")[0] == EXIT_MATH
    # theta out of range
    assert run(capsys, "height", "--group", "A2", "--theta", "5",
               "--lambda", "1,1")[0] == EXIT_MATH
    # wrong --y length, refused by the library
    assert run(capsys, "height", "--group", "A2", "--theta", "",
               "--lambda", "1,1", "--method", "fixed-point",
               "--y", "1,2,3") == (EXIT_MATH, "",
                                   "error: Y has 3 coordinates, rank is 2\n")


@pytest.mark.parametrize("group,lam,method,message", [
    ("A2", "1,1", "substitution",
     "weight (1, 1) does not vanish on theta=[2]"),
    ("A2", "1,1", "all", "weight (1, 1) does not vanish on theta=[2]"),
    ("B2", "1,1", "substitution",
     "weight (1, 1) does not vanish on theta=[2]"),
    ("B2", "1,1", "all", "weight (1, 1) does not vanish on theta=[2]"),
    ("B2", "-1,0", "substitution",
     "weight (-1, 0) is not ample for theta=[2]: violating root (1, 0)"),
    ("B2", "-1,0", "all",
     "weight (-1, 0) is not ample for theta=[2]: violating root (1, 0)"),
])
def test_ampleness_errors_number_theta_as_the_cli(capsys, group, lam,
                                                  method, message):
    """--theta 2 is node 2, and the error names it so, as jantzen-rhs
    does."""
    assert run(capsys, "height", "--group", group, "--theta", "2",
               f"--lambda={lam}", "--method", method) == (
        EXIT_MATH, "", f"error: {message}\n")


# (rule, subcommands, options, the one stderr line of every subcommand and
# every --method): each rule is decided by one check in the library
_RULES = [
    ("length", ("height", "jantzen-rhs"), "--group A2 --theta 1 --lambda 1",
     "weight (1,) has 1 coordinates, rank is 2"),
    ("length", ("char", "dim", "bwb"), "--group A2 --lambda 1",
     "weight (1,) has 1 coordinates, rank is 2"),
    ("theta", ("height", "jantzen-rhs"), "--group A2 --theta 5 --lambda 1,1",
     "theta index 5 out of range 1..2"),
    ("vanishing", ("height", "jantzen-rhs"),
     "--group A2 --theta 2 --lambda 1,1",
     "weight (1, 1) does not vanish on theta=[2]"),
    ("ample", ("height",), "--group B2 --theta 2 --lambda=-1,0",
     "weight (-1, 0) is not ample for theta=[2]: violating root (1, 0)"),
    ("dominant", ("char", "dim"), "--group A2 --lambda=1,-1",
     "weight (1, -1) is not dominant"),
    # two faults: the first in the order the command line is read (lambda,
    # theta, Y, then ampleness)
    ("length+theta", ("height", "jantzen-rhs"),
     "--group A2 --theta 5 --lambda 1",
     "weight (1,) has 1 coordinates, rank is 2"),
    ("theta+y", ("height",), "--group A2 --theta 5 --lambda 1,1 --y abc",
     "theta index 5 out of range 1..2"),
    ("ample+y", ("height",), "--group A2 --theta '' --lambda 1,0 --y 0,0",
     "Y is not regular: vanishes on root (0, 1)"),
    ("vanishing+y", ("height",), "--group A2 --theta 2 --lambda 1,1 --y 1,2,3",
     "Y has 3 coordinates, rank is 2"),
    ("length+dominant", ("char", "dim"), "--group A2 --lambda=1,-1,-1",
     "weight (1, -1, -1) has 3 coordinates, rank is 2"),
]


@pytest.mark.parametrize("argv,message", [
    pytest.param([command, *shlex.split(options), *method], message,
                 id="-".join([rule, command, *method[1:]]))
    for rule, commands, options, message in _RULES
    for command in commands
    for method in ([("--method", m) for m in ("all", "substitution",
                                               "fixed-point", "harmo-bott")]
                   if command == "height" else [()])
])
def test_each_rule_is_refused_in_one_wording(capsys, argv, message):
    assert run(capsys, *argv) == (EXIT_MATH, "", f"error: {message}\n")


def test_group_rank_beyond_the_digit_limit_is_a_parse_error(capsys):
    # int() refuses a rank with more digits than the interpreter's limit;
    # parse_cartan_spec turns that into InvalidCartanSpec, exit 2
    digits = sys.get_int_max_str_digits() + 100
    assert run(capsys, "dim", "--group", "A" + "1" * digits,
               "--lambda", "1") == (
        EXIT_PARSE, "", f"error: rank of factor A has {digits} digits, "
                        "beyond the interpreter's digit limit\n")


@pytest.mark.parametrize("method", ["all", "substitution", "fixed-point",
                                    "harmo-bott"])
@pytest.mark.parametrize("y,message", [
    ("0,0", "Y is not regular: vanishes on root (0, 1)"),
    ("1,-1", "Y is not regular: vanishes on root (1, 1)"),
    ("1,2,3", "Y has 3 coordinates, rank is 2"),
])
def test_every_method_refuses_the_same_y(capsys, method, y, message):
    """substitution uses no Y, but refuses the --y the others refuse."""
    assert run(capsys, "height", "--group", "A2", "--theta", "",
               "--lambda", "1,1", "--method", method, "--y", y) == (
        EXIT_MATH, "", f"error: {message}\n")


def test_cap_exceeded(capsys):
    code, _, err = run(capsys, "height", "--group", "E6", "--theta", "",
                       "--lambda", "1,1,1,1,1,1", "--cap", "100")
    assert code == EXIT_CAP
    assert "100" in err


def test_char_cap_checked_before_freudenthal(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("freudenthal started before the cap check")

    monkeypatch.setattr(cli, "freudenthal", refuse)
    code, out, err = run(capsys, "char", "--group", "A1",
                         "--lambda", "100000000")
    assert code == EXIT_CAP
    assert "100000001" in err and out == ""


def test_char_cap_is_the_dimension(capsys):
    code, out, _ = run(capsys, "char", "--group", "A2", "--lambda", "1,1",
                       "--cap", "8")
    assert code == EXIT_OK and json.loads(out)["dim"] == 8
    code, out, err = run(capsys, "char", "--group", "A2", "--lambda", "1,1",
                         "--cap", "7")
    assert code == EXIT_CAP
    assert "7" in err and out == ""


@pytest.mark.parametrize("group,lam,code,message", [
    # 99999999 terms of the k-loop
    ("A1", "100000000", EXIT_CAP, "has 99999999 terms"),
    # 1198 terms, but dim V(lambda) bounds the Freudenthal tables
    ("A2", "300,300", EXIT_CAP, "dimension 27270901"),
    ("A2", "-3,1", EXIT_MATH, "rho + (-3, 1) is singular; lambda0 undefined"),
])
def test_jantzen_refused_before_the_sum(capsys, monkeypatch, group, lam,
                                        code, message):
    def refuse(*args, **kwargs):
        raise RuntimeError("jantzen_rhs started")

    monkeypatch.setattr(cli, "jantzen_rhs", refuse)
    exit_code, out, err = run(capsys, "jantzen-rhs", "--group", group,
                              "--theta", "", f"--lambda={lam}")
    assert exit_code == code
    assert message in err and out == ""


@pytest.mark.parametrize("group,lam,size", [
    ("G2", "0,0", 6),  # 6 terms, dimension 1
    ("A2", "1,1", 8),  # 2 terms, dimension 8
])
def test_jantzen_cap_is_the_larger_size(capsys, group, lam, size):
    argv = ("jantzen-rhs", "--group", group, "--theta", "", "--lambda", lam)
    code, out, _ = run(capsys, *argv, "--cap", str(size))
    assert code == EXIT_OK and json.loads(out)["lambda0_component_zero"]
    code, out, err = run(capsys, *argv, "--cap", str(size - 1))
    assert code == EXIT_CAP
    assert f"cap {size - 1}" in err and out == ""


def test_jantzen_lambda_must_vanish_on_theta(capsys, monkeypatch):
    # the library checks lambda before any dotted reduction, the first
    # work of jantzen_sizes and of the sum
    def refuse(*args, **kwargs):
        raise RuntimeError("dotted reduction started")

    monkeypatch.setattr(jantzen, "to_dominant_dotted", refuse)
    code, out, err = run(capsys, "jantzen-rhs", "--group", "B2",
                         "--theta", "1", "--lambda", "2,1")
    assert code == EXIT_MATH and out == ""
    assert err == "error: weight (2, 1) does not vanish on theta=[1]\n"
    monkeypatch.undo()
    # lambda = 3 omega_2 vanishes on theta {1}
    code, out, _ = run(capsys, "jantzen-rhs", "--group", "A2",
                       "--theta", "1", "--lambda", "0,3")
    assert code == EXIT_OK and json.loads(out)["lambda0_component_zero"]


def test_jantzen_positivity_is_a_cross_check(capsys, monkeypatch):
    # a negative coefficient at a dominant lambda exits 5; below the
    # dominant chamber one is printed
    code, out, err = run(capsys, "jantzen-rhs", "--group", "A2",
                         "--theta", "", "--lambda=-3,3")
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["primes"] == {"3": [{"coeff": -1,
                                                "weight": [0, 0]}]}
    recursion = jantzen.dominant_multiplicities
    monkeypatch.setattr(jantzen, "dominant_multiplicities",
                        lambda core, lam0: [-m for m in recursion(core, lam0)])
    code, out, err = run(capsys, "jantzen-rhs", "--group", "A2",
                         "--theta", "", "--lambda", "2,1")
    assert code == EXIT_CROSSCHECK and out == ""
    assert err.startswith("error: the sum at dominant (2, 1) has "
                          "coefficient -") and err.count("\n") == 1


@pytest.mark.parametrize("cap", [("--cap", "-5"), ("--cap=-1",)])
def test_negative_cap_is_a_parse_error(capsys, cap):
    code, out, err = run(capsys, "height", "--group", "A1", "--theta", "",
                         "--lambda", "1", *cap)
    assert code == EXIT_PARSE and out == ""
    assert "argument --cap: invalid cap -" in err
    assert "a size cannot be negative" in err


def test_cap_zero_is_a_size(capsys):
    code, out, err = run(capsys, "height", "--group", "A1", "--theta", "",
                         "--lambda", "1", "--cap", "0")
    assert code == EXIT_CAP and out == ""
    assert "cap 0" in err


def test_text_output(capsys):
    _, out, _ = run(capsys, "height", "--group", "A1", "--theta", "",
                    "--lambda", "1", "--output", "text")
    assert "1/2" in out


def test_text_and_csv_of_record_lists(capsys):
    """Lists of records print as compact JSON with sorted keys."""
    char = ("char", "--group", "A2", "--lambda", "1,0")
    weights = ('[{"mult": 1, "weight": [1, 0]}, '
               '{"mult": 1, "weight": [0, -1]}, '
               '{"mult": 1, "weight": [-1, 1]}]')
    assert run(capsys, *char, "--output", "text")[1] == (
        "group    A2\n"
        "lambda   1,0\n"
        "dim      3\n"
        f"weights  {weights}\n")
    assert run(capsys, *char, "--output", "csv")[1] == (
        "group,lambda,dim,weights\r\n"
        'A2,"1,0",3,"' + weights.replace('"', '""') + '"\r\n')

    jantzen = ("jantzen-rhs", "--group", "A2", "--theta", "",
               "--lambda", "2,1")
    bucket = ('[{"coeff": 1, "weight": [-2, 0]}, '
              '{"coeff": 3, "weight": [-1, 1]}, '
              '{"coeff": 3, "weight": [0, -1]}, '
              '{"coeff": 1, "weight": [0, 2]}, '
              '{"coeff": 3, "weight": [1, 0]}, '
              '{"coeff": 1, "weight": [2, -2]}]')
    assert run(capsys, *jantzen, "--output", "text")[1] == (
        "group                   A2\n"
        "theta                   \n"
        "lambda                  2,1\n"
        f'primes                  {{"2": {bucket}}}\n'
        "lambda0_component_zero  True\n")
    assert run(capsys, *jantzen, "--output", "csv")[1] == (
        "group,theta,lambda,primes_2,lambda0_component_zero\r\n"
        'A2,,"2,1","' + bucket.replace('"', '""') + '",True\r\n')


@pytest.mark.parametrize("argv", [
    ("height", "--group", "B2", "--theta", "", "--lambda", "2,1"),
    ("height", "--group", "A3", "--theta", "1,3", "--lambda", "0,1,0"),
    ("scan", "--group", "G2"),
    ("char", "--group", "B3", "--lambda", "1,1,1"),
    ("jantzen-rhs", "--group", "B2", "--theta", "", "--lambda", "3,2"),
    ("jantzen-rhs", "--group", "A2", "--theta", "1", "--lambda", "0,3"),
    ("dim", "--group", "F4", "--lambda", "1,0,0,1"),
    ("bwb", "--group", "A2", "--lambda=-1,0"),
    ("bwb", "--group", "A2", "--lambda=-4,1"),
])
def test_json_is_json_dumps_indent_2_sorted(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# SHA-256 of stdout in json, text and csv, taken from the renderer that
# built one dict per weight before the column tables replaced it
_PINNED_OUTPUTS = {
    ('char', 'A2', None, '2,1'): (
        'e6fa445363e0cef6ad7e22fa859e00bca07d063369b5e4322d3b84ecb87e04e3',
        '3a2af7c70d03efe478523b0cc1efcb4ca47ef62d0e88e6cd8c7461d5e8af8fbc',
        '0ca0790f322bdaae6717b6151407a04ba49ddd6e616115056826333d3d1cada0'),
    ('jantzen-rhs', 'A2', '', '2,1'): (
        '022ee9c722f0f5e1ae973f1d7dd1d862be4f6ec4bb42910bb1caa2df81c289ad',
        '8e19f0e577a9bbe62906a3d0e6636a0f742f259421cad0a75b6312a4aca8804f',
        '6ab7121cb38bf2165481b15e782b98d1665fa43d08e18922c94811e637838292'),
    ('char', 'B2', None, '3,2'): (
        '7c85c5f9e22cfc1abf187f3567e1357761a053fd6c884f974c179d94c882d02a',
        '740ad62735898e72e2da4ec703b73eef4b487cb0b4bb63e5490f3383ced0e7e3',
        '77df62999478f92f7ef17d1ec131564fa9ec655d1646a4cf9081318ac21e28e0'),
    ('jantzen-rhs', 'B2', '', '3,2'): (
        'bc6c0e021dd304930a1da92569cc8c9af318ef1f376b5557f72b960111c0815b',
        'c5c3f916226f43e3f320a7f3e63e5e2daabb26016212992d50ad05bdb4a8e4e5',
        '8d890e228bc213c245a4335b64449b86b5faffb69a589aac6836871121c206eb'),
    ('char', 'G2', None, '2,2'): (
        '011e1a9a68ba2d80274c67aa2ade161112ff9e19b21b5b33e7da32e349fbfe77',
        '313089d17ac3f83e681c8bf52f800386c10c5f20de94533c03ec5b09a8fdc936',
        '8d6876c1f5a3fd56e961948ea694c04f9c9286a32d35b7a405326e52e14fca07'),
    ('jantzen-rhs', 'G2', '', '2,2'): (
        'cca83e4db237e548370a33263b74037f9ee4e13047b53d305472a5ce7c0e20a1',
        '201ea64994f072a65723d61efd207826a81011fbcdb4c62f60cd9d74f03c44ef',
        'dc5b7fa351090df84ca3c069b5dbee6f31729556d06f4523d1986cd899db6e87'),
    ('char', 'D4', None, '1,1,1,1'): (
        '91c4cdfffbbb0cdafb20d876633a285264242cba0c349c5088cb05aaae7825cb',
        'f9303446fc080b3aa5674eb711077766213c0cde4842c6284c1adc4684856d44',
        'df1620b28f3f97762e79c2f94762c7e96bda72bd9eaf709573ce0470dabf81cd'),
    ('jantzen-rhs', 'D4', '', '1,1,1,1'): (
        '5d7f79fa15711d42809078a1f65184f94d2284f3e6fd83233c03be8a0990d84b',
        'f8ce2771e66d865a3c2bfb7947349c9af5ba03ea8c26c88c863d52c593a02fc1',
        '4a5676f81d3e0470632c7009788a4ee34c7e6e327063c54b95ef3492b5846f69'),
    ('char', 'B4', None, '2,1,1,1'): (
        'adcf1602dbdfa2f1cfe0ee12b77f3ea5099f45e18a7c772b3124a887bab034dc',
        '59afc31fa6c343a2657cb3035c5256ebcdbe53c5bd78fc96d70bad1983931e41',
        '2dc645e69d63d3ed9d19df888bd5c42b2e1a752497c906d1a2eb2c7ee4ead0ac'),
    ('jantzen-rhs', 'B4', '', '2,1,1,1'): (
        'f81574e434d194ace75460ed37e907acfecd48b254dae15aceb43663cf5518a0',
        'a20e77bf8d3ef9b95ea6425b6466ede3427d88a84bd01e93280b1d2cf6cff9fe',
        '8a8d650f4718acc2c6bdd22f8df09af3a0e8e54ac2d4b522e4d22125bd5f0571'),
    ('char', 'A5', None, '2,1,1,1,2'): (
        '2003a7a7eb7cb0dd0a2c7f6270ba11c5499e243707299910c196ed898df2b78e',
        '491b3ab73f34da897e696b8179c39600ac7d571443f6e7f9bc41c1673f0941d1',
        '4119a1e3a8098dc864ba61b6a3ed9057e420838110c46253937c58fa22cb9cd4'),
    ('jantzen-rhs', 'A5', '', '2,1,1,1,2'): (
        '9e7f28ea8a35483a6b3392c643a848505c8424808aafb4505090c1a84d054377',
        'c574dbe4411dbac37af4164a2e5087f918f906e15e15584e0f778895e8a9ba34',
        '83bc912b375d5b4e2fc745e071434f79b97f18897d68bd542eeccb97d8c444bb'),
    ('jantzen-rhs', 'B2', '1', '0,3'): (
        '39191b6abfeae592d43f8d0c227b7d657d30ece2c259181e65973e9e83ed7dad',
        '967f028cbbd6c5eca81bda0377f2a3350e45d049883013a3a8b7e086efc3a367',
        'a7586ba5d10b21816ccfd1d1a35aa9437e9e47ff182acbb7b9484ccc4dacc4f3'),
}


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("command,group,theta,lam", list(_PINNED_OUTPUTS))
def test_weight_table_bytes_are_pinned(capsys, command, group, theta, lam,
                                       fmt):
    argv = [command, "--group", group, "--lambda", lam, "--output", fmt]
    if theta is not None:
        argv += ["--theta", theta]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    digest = _PINNED_OUTPUTS[command, group, theta, lam][
        ["json", "text", "csv"].index(fmt)]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _fuzz_rank(group: str) -> int:
    return sum(int(factor.strip()[1:]) for factor in group.split("x"))


_FUZZ_GROUPS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4",
                "F4", "G2", "E6", "E7", "E8", "A100", "D50", "A1xA1", "B2xA1",
                "A1xG2", "A2xA2", "A1xA1xA1xA1", "B2 x A1", "B1", "D3", "E4",
                "Q2"]


@st.composite
def _capped_lines(draw):
    """A command line of a subcommand with a cap: a group of rank up to 100
    (exceptional, a product, spelled with spaces, lower case, or not a group
    at all), a weight mostly of the right length, either small and dominant
    or with negative and large entries, a theta with repeats and
    out-of-range nodes on which the weight may vanish, a cap up to 10^4 and
    every output."""
    command = draw(st.sampled_from(["char", "jantzen-rhs", "dim", "bwb"]))
    group = draw(st.sampled_from(_FUZZ_GROUPS))
    rank = _fuzz_rank(group)
    if draw(st.booleans()):
        group = group.lower()
    length = max(draw(st.sampled_from([rank, rank, rank, rank + 1,
                                       rank - 1])), 0)
    entry = st.integers(0, 2) if draw(st.booleans()) else (
        st.integers(-3, 3) | st.integers(-10**6, 10**6)
        | st.sampled_from([10**30, -10**30]))
    lam = draw(st.lists(entry, min_size=length, max_size=length))
    theta = draw(st.lists(st.integers(-1, rank + 1), max_size=5)
                 | st.just([]))
    if draw(st.booleans()):
        for i in theta:
            if 1 <= i <= length:
                lam[i - 1] = 0
    argv = [command, "--group", group, "--lambda", ",".join(map(str, lam)),
            "--cap", str(draw(st.just(10**4) | st.integers(-1, 10**4))),
            "--output", draw(st.sampled_from(["json", "text", "csv"]))]
    if command == "jantzen-rhs":
        argv += ["--theta", ",".join(map(str, theta))]
    return argv


@settings(max_examples=150, deadline=timedelta(seconds=20),
          suppress_health_check=[HealthCheck.too_slow])
@given(_capped_lines())
# the large root systems on every run: a draw of 150 may miss each of them
@example(["bwb", "--group", "A100", "--lambda", ",".join(["-3"] * 100),
          "--cap", "10000", "--output", "json"])
@example(["dim", "--group", "D50", "--lambda", ",".join(["1"] * 50),
          "--cap", "10000", "--output", "text"])
@example(["jantzen-rhs", "--group", "E7", "--lambda", "1,0,0,0,0,0,0",
          "--theta", "2,3,4,5,6,7", "--cap", "10000", "--output", "json"])
@example(["char", "--group", "E8", "--lambda", "0,0,0,0,0,0,0,1",
          "--cap", "10000", "--output", "csv"])
def test_capped_subcommands_end_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_MATH, EXIT_CAP), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK and argv[argv.index("--output") + 1] == "json":
        text = out.getvalue()
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"


@pytest.mark.parametrize("method", ["fixed-point", "harmo-bott"])
def test_cap_exceeded_localization_methods(capsys, method):
    code, out, err = run(capsys, "height", "--group", "E6", "--theta", "",
                         "--lambda", "1,1,1,1,1,1", "--method", method,
                         "--cap", "100")
    assert code == EXIT_CAP
    assert "100" in err and out == ""


def test_cap_is_the_coset_count(capsys):
    # E6/P1 has 27 cosets
    argv = ("height", "--group", "E6", "--theta", "2,3,4,5,6",
            "--lambda", "1,0,0,0,0,0", "--method", "fixed-point")
    code, out, _ = run(capsys, *argv, "--cap", "27")
    assert code == EXIT_OK and json.loads(out)["dim"] == 16
    code, out, err = run(capsys, *argv, "--cap", "26")
    assert code == EXIT_CAP
    assert "26" in err and out == ""


def test_cap_exceeded_before_substitution(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("substitution started before the cap check")

    monkeypatch.setattr(height, "height_substitution", refuse)
    code, out, err = run(capsys, "height", "--group", "E6", "--theta", "",
                         "--lambda", "1,1,1,1,1,1", "--method", "all",
                         "--cap", "100")
    assert code == EXIT_CAP
    assert "100" in err and out == ""


@pytest.mark.parametrize("spaced,joined", [
    (("bwb", "--group", "A2", "--lambda", "-1,0"),
     ("bwb", "--group", "A2", "--lambda=-1,0")),
    (("bwb", "--group", "A2", "--lam", "-4,1"),
     ("bwb", "--group", "A2", "--lambda=-4,1")),
    (("height", "--group", "B2", "--theta", "", "--lambda", "1,1",
      "--method", "fixed-point", "--y", "-1,3"),
     ("height", "--group", "B2", "--theta", "", "--lambda", "1,1",
      "--method", "fixed-point", "--y=-1,3")),
    (("height", "--group", "B2", "--theta", "", "--lambda", "1,1",
      "--method", "fixed-point", "--y", "-.5,1"),
     ("height", "--group", "B2", "--theta", "", "--lambda", "1,1",
      "--method", "fixed-point", "--y=-.5,1")),
    (("height", "--group", "A2", "--theta", "-1,2", "--lambda", "0,1"),
     ("height", "--group", "A2", "--theta=-1,2", "--lambda", "0,1")),
])
def test_negative_values_after_a_space(capsys, spaced, joined):
    """Both spellings give the same exit code, output and error; a theta
    index below 1 is refused as out of range, every other line runs."""
    runs = [_zeroed(capsys, argv) for argv in (spaced, joined)]
    code, _, err = runs[0]
    assert code == (EXIT_MATH if "--theta=-1,2" in joined else EXIT_OK), err
    assert runs[0] == runs[1]


def _readme_commands():
    """The flagheight lines of the sh blocks under README's `## CLI` and
    `## Batteries and tables` headings."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as f:
        sections = re.split(r"^## ", f.read(), flags=re.M)
    commands = []
    for section in sections:
        if section.startswith(("CLI\n", "Batteries and tables\n")):
            for block in re.findall(r"^```sh\n(.*?)^```", section,
                                    flags=re.M | re.S):
                commands += [line.split(" #")[0].rstrip()
                             for line in block.splitlines()
                             if line.startswith("flagheight ")]
    return commands


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_examples_run(capsys, line):
    code, _, err = run(capsys, *shlex.split(line)[1:])
    assert code == EXIT_OK, err


_SUBCOMMANDS = ("height", "jantzen-rhs", "char", "dim", "bwb", "scan")
_PARSE_BATTERY = (
    [(cmd, "-h") for cmd in _SUBCOMMANDS]
    + [("-h",), (), ("heigth", "--group", "A1")]
    + [("height", "--theta", "", "--lambda", "1"),
       ("height", "--group", "A1", "--lambda", "1", "--method", "bogus")]
    + [(cmd, "--group", "A1", "--lambda", "1", "--bogus", "x")
       for cmd in _SUBCOMMANDS]
    + [("bwb", "--group", "A2", "--lam", "-4,1"),
       ("bwb", "--group", "A2", "--lambda", "-1,0"),
       ("height", "--group", "B2", "--theta", "", "--lambda", "1,1",
        "--method", "fixed-point", "--y", "-1,3")]
)


# each option that changes a call, then the same call without it; both
# spellings of a value; a parse error, help, an abbreviation, a bad group,
# and two spellings of one group
_PLAIN_BATTERY = (
    ("height", "--group", "B2", "--theta", "", "--lambda", "1,1",
     "--method", "fixed-point", "--y", "-1,3"),
    ("height", "--group", "B2", "--theta", "", "--lambda", "1,1",
     "--method", "fixed-point"),
    ("height", "--group", "A3", "--theta", "", "--lambda", "1,1,1",
     "--cap", "5"),
    ("height", "--group", "A3", "--theta", "", "--lambda", "1,1,1"),
    ("dim", "--group", "A2", "--lambda", "1,1", "--output", "text"),
    ("dim", "--group", "A2", "--lambda", "1,1"),
    ("dim", "--group=A2", "--lambda=1,1", "--output=csv"),
    ("char", "--group", "A2", "--lambda", "1,0", "--bogus"),
    ("char", "--group", "A2", "--lambda", "1,0", "--cap", "-1"),
    ("height", "-h"),
    ("dim", "--gr", "A2", "--lam", "1,1"),
    ("dim", "--group", "Z9", "--lambda", "1"),
    ("bwb", "--group", "b2xa1", "--lambda", "1,0,1"),
    ("bwb", "--group", "B2 x A1", "--lambda", "1,0,1"),
    ("bwb", "--group", "A2", "--lambda", "-1,0"),
    ("jantzen-rhs", "--group", "A2", "--theta", "", "--lambda", "1,1"),
    ("scan", "--group", "A2", "--method", "substitution",
     "--print-numbering"),
)


def _zeroed(capsys, argv):
    code, out, err = run(capsys, *argv)
    return code, re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out), err


@pytest.mark.parametrize("argv", dict.fromkeys([*_PARSE_BATTERY,
                                                *_PLAIN_BATTERY]),
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_parse_contract(capsys, monkeypatch, argv):
    """main gives the bytes and exit code that it gives when the full tree
    of build_argument_parser reads every line: help and usage wrap to the
    terminal width, so both runs see COLUMNS=80."""
    monkeypatch.setenv("COLUMNS", "80")
    plain = _zeroed(capsys, argv)
    monkeypatch.setattr(cli, "_plain_args", lambda command, tokens: None)
    assert _zeroed(capsys, argv) == plain


def _argparse_args(command, tokens):
    """The subcommand parser's arguments, or None on an error or leftover
    tokens."""
    parser = argparse.ArgumentParser(prog=f"flagheight {command}")
    cli._add_options(parser, command)
    try:
        args, extra = parser.parse_known_args(tokens)
    except SystemExit:
        return None
    return None if extra else args


_FLAGS = sorted({flag for group in cli._OPTION_GROUPS.values()
                 for flag, _ in group})
_VALUES = ("A2", "b2xa1", "", "1,1", "-1,0", "-3", "0", "5", "x", "json",
           "text", "all", "substitution", "-h", "--", "--group")


def _random_line(rng, flags):
    """Mostly well-formed option tokens, with some foreign and abbreviated
    options, '=' spellings and values that start with '-'."""
    tokens = ["--group", rng.choice(_VALUES[:3])] if rng.random() < 0.8 \
        else []
    for _ in range(rng.randrange(4)):
        flag = rng.choice(flags if rng.random() < 0.9 else _FLAGS)
        if rng.random() < 0.1:
            flag = flag[:4]
        if flag == "--print-numbering" and rng.random() < 0.9:
            tokens.append(flag)
        elif rng.random() < 0.3:
            tokens.append(f"{flag}={rng.choice(_VALUES)}")
        else:
            tokens += [flag, rng.choice(_VALUES)]
    rng.shuffle(tokens) if rng.random() < 0.1 else None
    return tokens


def test_plain_args_agree_with_argparse(capsys):
    """On random lines, every line _plain_args reads gives argparse's
    arguments, attribute for attribute and in the same order."""
    rng = random.Random(16)
    read = 0
    for command, (_, groups, _) in cli._SUBCOMMANDS.items():
        flags = [flag for group in groups
                 for flag, _ in cli._OPTION_GROUPS[group]]
        for _ in range(250):
            tokens = _random_line(rng, flags)
            args = cli._plain_args(command, tokens)
            if args is not None:
                want = _argparse_args(command, tokens)
                assert want is not None, tokens
                assert list(vars(args).items()) == list(vars(want).items())
                read += 1
    capsys.readouterr()
    assert read > 300


def test_plain_line_builds_no_parser(capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise RuntimeError("argparse parser built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    code, out, _ = run(capsys, "height", "--group", "A3", "--theta", "",
                       "--lambda=1,1,1", "--method", "substitution")
    assert code == EXIT_OK and json.loads(out)["height"]
    code, out, _ = run(capsys, "dim", "--group", "A2", "--lambda", "1,1")
    assert code == EXIT_OK and json.loads(out)["dim"] == 8


# Records, in a fresh process, which of the modules that flagheight.cli
# loads only on demand are loaded after its import and after each command
# line it is given: one JSON record per step on stdout, with main's exit
# code, stdout and stderr
_LAZY_IMPORTS = textwrap.dedent("""
    import io
    import json
    import sys

    sys.path.insert(0, sys.argv[1])
    watched = ("dataclasses", "inspect", "typing", "argparse", "csv")
    out = sys.stdout

    def loaded():
        return [name for name in watched if name in sys.modules]

    import flagheight.cli
    records = [{"argv": None, "loaded": loaded()}]
    for argv in json.loads(sys.argv[2]):
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        code = flagheight.cli.main(argv)
        records.append({"argv": argv, "code": code,
                        "out": sys.stdout.getvalue(),
                        "err": sys.stderr.getvalue(), "loaded": loaded()})
    out.write(json.dumps(records))
""")

_LAZY_PLAIN_LINES = [
    ["height", "--group", "A1", "--theta", "", "--lambda", "1"],
    ["jantzen-rhs", "--group", "A2", "--theta", "", "--lambda", "1,1"],
    ["char", "--group", "A2", "--lambda", "1,0"],
    ["dim", "--group", "A2", "--lambda", "1,1"],
    ["bwb", "--group", "G2", "--lambda", "-2,-1"],
    ["scan", "--group", "A2", "--method", "substitution"],
]

_CAP_USAGE = (
    "usage: flagheight dim [-h] --group GROUP [--output {json,csv,text}]\n"
    "                      [--cap CAP] [--print-numbering] [--lambda LAM]\n"
    "flagheight dim: error: argument --cap: ")


def test_fresh_process_loads_argparse_and_csv_only_on_demand():
    """Importing flagheight.cli loads none of dataclasses, inspect, typing,
    argparse or csv; plain json and text lines load neither argparse nor
    csv, csv output loads csv alone, and an abbreviation or a bad --cap
    loads argparse, which gives the same bytes as before.  The child runs
    under -S, since a site hook may preload typing, and pytest has loaded
    argparse in this process."""
    dim = ["dim", "--group", "A2", "--lambda", "1,1"]
    steps = [*(line + ["--output", fmt] for fmt in ("json", "text")
               for line in _LAZY_PLAIN_LINES),
             dim + ["--output", "csv"],
             dim[:3] + ["--lam", "1,1"],
             dim + ["--cap", "x"],
             dim + ["--cap", "-1"]]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LAZY_IMPORTS, os.path.abspath(src),
         json.dumps(steps)],
        env=dict(os.environ, COLUMNS="80"), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported, *records = json.loads(proc.stdout)
    assert imported["loaded"] == []
    *plain, csv_line, abbreviated, cap_x, cap_negative = records
    for record in plain:
        assert (record["code"], record["err"]) == (EXIT_OK, ""), record
        assert record["loaded"] == [], record["argv"]
    assert (csv_line["code"], csv_line["loaded"]) == (EXIT_OK, ["csv"])
    assert csv_line["out"] == "group,lambda,dim\r\nA2,\"1,1\",8\r\n"
    assert abbreviated["loaded"] == ["argparse", "csv"]
    assert (abbreviated["code"], abbreviated["out"]) == \
        (EXIT_OK, plain[_LAZY_PLAIN_LINES.index(dim)]["out"])
    for record, message in ((cap_x, "invalid int value: 'x'"),
                            (cap_negative,
                             "invalid cap -1: a size cannot be negative")):
        assert (record["code"], record["out"], record["err"]) == \
            (EXIT_PARSE, "", _CAP_USAGE + message + "\n")
