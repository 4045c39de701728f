"""Command-line front end.

Subcommands: height, jantzen-rhs, char, dim, bwb, scan.  Simple roots are
numbered 1..rank in the deterministic ordering printed by
--print-numbering; --theta and --lambda refer to that numbering.

Exit codes: 0 success, 2 argument or parse error (a malformed --group, a
negative --cap, an option number or --group rank beyond the interpreter's
digit limit, a --y in exponent form), 3 invalid mathematical input,
refused by the library's one check of each rule with its message (a
--lambda of the wrong length, a --theta index out of range, a weight that
does not vanish on theta or is not ample, for char and dim one that is not
dominant, for jantzen-rhs a singular rho + lambda, a bad localization
vector), 4 enumeration size cap exceeded (for char: the module's
dimension, which bounds its weight table; for jantzen-rhs: its number of
k-loop terms, or the dimension that bounds each of its weight tables), 5
internal cross-check failure (for jantzen-rhs: a negative coefficient at a
dominant lambda).  When the height methods disagree, the `error:` line on
stderr is followed by one JSON line with the instance (group, theta,
lambda, y), the values of substitution, fixed_point and harmo_bott, and
w0_paired, true when the localisation sums counted only half of the cosets
(w0 Y = -Y).

JSON output (the default) is `json.dumps(doc, indent=2, sort_keys=True)`
plus a newline, byte for byte; only `elapsed_ms` differs between runs.
json.dumps writes each document (_dumps).  The weight tables of char and
jantzen-rhs, weight -> int dicts, are held as _Table (the sorted weights
and their values); json.dumps leaves a NaN in place of each, which no
document holds otherwise, and one %d template per table writes its records
there.  The text and csv outputs print a table as its list of records.

A reader that closes stdout early (e.g. `flagheight scan ... | head`) is
not an error: the rest of the output is discarded and the exit code is 0.

Every command line is a fresh process, so the import is kept lean: the
library defines plain classes, without dataclasses or typing; a plain
line (see _plain_args) is read without argparse, which is imported only
where the full parser tree is built or --cap is refused; csv is imported
only for --output csv.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter
from types import SimpleNamespace

from .charpoly import freudenthal, weyl_dim, weyl_product
from .height import (
    MethodDisagreement,
    check_y,
    denominator_check,
    height_all_methods,
    height_fixed_point,
    height_harmo_bott,
    height_substitution,
)
from .jantzen import jantzen_rhs, jantzen_sizes, lambda0_component
from .parabolic import build_parabolic
from .rootsys import InvalidCartanSpec, InvariantViolation, \
    build_root_system, one_based, parse_cartan_spec
from .weyl import DEFAULT_CAP, GroupTooLarge, to_dominant_dotted

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MATH = 3
EXIT_CAP = 4
EXIT_CROSSCHECK = 5


class _ParseError(ValueError):
    pass


_NOUNS = {int: "integers", Fraction: "rationals"}


def _parse_list(text: str, kind, what: str) -> list:
    """The comma list text of option `what` as values of kind, int or
    Fraction; [] if it is blank.  _ParseError if a token does not parse,
    has more digits than the interpreter's digit limit, or has an exponent:
    Fraction("1e30000000") would build 10^30000000, with no digit check."""
    if text is None or text.strip() == "":
        return []
    try:
        if "e" in text.lower():
            raise ValueError
        return [kind(tok) for tok in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise _ParseError(f"cannot parse {what} {text!r} as comma list "
                          f"of {_NOUNS[kind]}") from None


def _rational(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


class _Table:
    """The records {"weight": mu, name: c} of a weight -> int table, by
    weight (descending if reverse), held as the sorted weights and their
    values.  _render_table writes a table's JSON with one %d template;
    records gives back the list of dicts it stands for, which the text and
    csv outputs print."""

    __slots__ = ("name", "weights", "values")

    def __init__(self, table: dict, name: str, reverse: bool = False):
        self.name = name
        self.weights = sorted(table, reverse=reverse)
        self.values = list(map(table.__getitem__, self.weights))

    def records(self) -> list:
        return [{"weight": mu, self.name: c}
                for mu, c in zip(self.weights, self.values)]


# a hole that _dumps leaves for a table in its text, json.dumps plus a
# newline: a NaN followed by an optional comma and a newline.  No JSON
# string holds a raw newline, so a NaN inside a string never matches
_HOLE = re.compile(r"NaN(?=,?\n)")


def _dumps(doc) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True) + "\\n"`, byte for byte,
    for documents of dicts with str keys, lists, ints, bools, None and
    strings, where a _Table stands for its list of records.  json.dumps
    writes every byte but the tables' records: it puts a NaN in place of
    each table, and _render_table fills each hole at the indentation of its
    line.  Documents hold no other NaN, so no hole is mistaken; a str or int
    sentinel could equal a string or an int of the document."""
    tables = []

    def hole(table):
        if not isinstance(table, _Table):
            raise TypeError(f"{type(table).__name__} is not JSON serializable")
        tables.append(table)
        return math.nan

    text = json.dumps(doc, indent=2, sort_keys=True, default=hole) + "\n"
    in_order = iter(tables)  # json.dumps calls hole in the order of the text

    def fill(m):
        line = text[text.rfind("\n", 0, m.start()) + 1:m.start()]
        return _render_table(next(in_order),
                             "\n" + " " * (len(line) - len(line.lstrip())))

    return _HOLE.sub(fill, text)


def _render_table(table: _Table, nl: str) -> str:
    """The JSON of a table's records at indentation nl: one %d template
    per record, with its two keys in sorted order, formats every row.
    TypeError, before anything is formatted, unless the weights are int
    tuples of one width and every value is an exact int."""
    weights = table.weights
    if not weights:
        return "[]"
    width = len(weights[0])
    if any(len(mu) != width for mu in weights):
        raise TypeError("the weights are not int tuples of one width")
    row_nl = nl + "  "
    key_nl = row_nl + "  "
    item_nl = key_nl + "  "
    slots = ['"weight": ' + ("[" + item_nl + ("," + item_nl).join(
        ["%d"] * width) + key_nl + "]" if width else "[]")]
    parts = [map(itemgetter(j), weights) for j in range(width)]
    after = table.name > "weight"  # the value's key sorts after "weight"
    slots.insert(after, _encode_str(table.name).replace("%", "%%") + ": %d")
    parts.insert(after * width, table.values)
    values = tuple(chain.from_iterable(zip(*parts)))
    if not set(map(type, values)) <= {int}:
        raise TypeError("a weight or a value is not an exact int")
    template = "{" + key_nl + ("," + key_nl).join(slots) + row_nl + "}"
    return ("[" + row_nl + ("," + row_nl).join([template] * len(weights))
            % values + nl + "]")


def _emit(doc, fmt: str) -> str:
    """Render a result document, or scan's list of them: json through
    _dumps, csv as one flat row per document, text as aligned key/value
    lines, with a blank line after each document of a list."""
    if fmt == "json":
        return _dumps(doc)
    docs, end = (doc, "\n") if isinstance(doc, list) else ([doc], "")
    if fmt == "csv":
        import csv
        rows = [_flatten(d) for d in docs]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    out = []
    for d in docs:
        width = max(map(len, d))
        out += [f"{k.ljust(width)}  {_textval(v)}\n" for k, v in d.items()]
        out.append(end)
    return "".join(out)


def _write(text: str) -> None:
    """Write text to stdout.  If the reader has closed the pipe, point
    stdout at os.devnull, so that the flush at shutdown does not raise."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _flatten(doc: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in doc.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, f"{key}_"))
        else:
            out[key] = _textval(v)
    return out


def _textval(v):
    if isinstance(v, _Table):
        v = v.records()
    if isinstance(v, dict) and set(v) == {"num", "den"}:
        return v["num"] if v["den"] == "1" else f"{v['num']}/{v['den']}"
    if isinstance(v, dict) or (isinstance(v, (list, tuple)) and v
                               and all(isinstance(x, dict) for x in v)):
        return json.dumps(v, sort_keys=True, default=_Table.records)
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)


# ---------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------


# --method -> its height function, called with (pd, lam, Y, cap).  Each
# lambda looks the name up per call, so a function patched after import (by
# a test, or by the benchmark's tracer) is the one called
_HEIGHT_METHODS = {
    "all": lambda pd, lam, Y, cap: height_all_methods(pd, lam, Y, cap),
    "substitution": lambda pd, lam, Y, cap: height_substitution(pd, lam),
    "fixed-point": lambda pd, lam, Y, cap: height_fixed_point(pd, lam, Y, cap),
    "harmo-bott": lambda pd, lam, Y, cap: height_harmo_bott(pd, lam, Y, cap),
}


def _height_doc(args, rs, pd, lam, Y) -> dict:
    if args.method == "substitution":
        check_y(rs, Y)  # no Y in this kernel, but the same --y is refused
    start = time.monotonic()
    res = _HEIGHT_METHODS[args.method](pd, lam, Y, args.cap)
    elapsed_ms = int(1000 * (time.monotonic() - start))
    c = rs.coxeter_number
    return {
        "group": str(rs.spec),
        "theta": one_based(pd.theta),
        "lambda": list(lam),
        "dim": pd.dim,
        "height": _rational(res.value),
        "methods_agreed": True if args.method == "all" else None,
        "coxeter": c,
        "cor82_ok": denominator_check(res, 2 * c - 2),
        "conjecture_ok": denominator_check(res, c - 1),
        "elapsed_ms": elapsed_ms,
    }


def _disagreement_doc(exc: MethodDisagreement) -> dict:
    """The instance and every method's value, for the stderr diagnostic."""
    doc = {
        "group": str(exc.pd.rs.spec),
        "theta": one_based(exc.pd.theta),
        "lambda": list(exc.lam),
        "y": [_rational(v) for v in exc.y],
        "w0_paired": exc.w0_paired,
    }
    doc.update((method, _rational(value))
               for method, value in exc.values.items())
    return doc


def _jantzen_doc(args, rs, pd, lam) -> dict:
    terms, dim = jantzen_sizes(pd, lam)
    if terms > args.cap:
        raise GroupTooLarge(f"the sum at {list(lam)} has {terms} terms, "
                            f"exceeding the cap {args.cap}")
    if dim > args.cap:
        raise GroupTooLarge(
            f"the weight tables of the sum at {list(lam)} are bounded by "
            f"dimension {dim}, exceeding the cap {args.cap}")
    rhs = jantzen_rhs(pd, lam)
    lam0 = lambda0_component(rhs, pd, lam)
    return {
        "group": str(rs.spec),
        "theta": one_based(pd.theta),
        "lambda": list(lam),
        "primes": {str(p): _Table(bucket, "coeff")
                   for p, bucket in sorted(rhs.items())},
        "lambda0_component_zero": not lam0,
    }


def _char_doc(args, rs, lam) -> dict:
    # the module's dimension num/den bounds the number of weights in the
    # table; its integrality is left to freudenthal's own check
    num, den = weyl_product(rs, lam)
    if num > args.cap * den:
        raise GroupTooLarge(
            f"the module of {list(lam)} has dimension {num // den}, "
            f"exceeding the cap {args.cap}")
    table = freudenthal(rs, lam)
    return {
        "group": str(rs.spec),
        "lambda": list(lam),
        "dim": sum(table.values()),
        "weights": _Table(table, "mult", reverse=True),
    }


def _dim_doc(args, rs, lam) -> dict:
    return {"group": str(rs.spec), "lambda": list(lam),
            "dim": weyl_dim(rs, lam)}


def _bwb_doc(args, rs, lam) -> dict:
    res = to_dominant_dotted(rs, lam)
    doc = {"group": str(rs.spec), "lambda": list(lam)}
    if res is None:
        doc.update({"singular": True, "degree": None,
                    "word": None, "lambda0": None, "dim": None})
    else:
        w, lam0 = res
        doc.update({"singular": False, "degree": w.length,
                    "word": [i + 1 for i in w.word],
                    "lambda0": list(lam0), "dim": weyl_dim(rs, lam0)})
    return doc


def _scan_docs(args, rs, Y) -> list:
    """Heights of all maximal parabolics: theta = Pi minus {i}, lam = om_i."""
    docs = []
    for i in range(rs.rank):
        pd = build_parabolic(rs, set(range(rs.rank)) - {i})
        lam = tuple(1 if j == i else 0 for j in range(rs.rank))
        docs.append(_height_doc(args, rs, pd, lam, Y))
    return docs


def _cap(text: str) -> int:
    """--cap: an int that is not negative, with argparse's own wording for
    text that is not an int."""
    try:
        value = int(text)
    except ValueError:
        import argparse
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        import argparse
        raise argparse.ArgumentTypeError(
            f"invalid cap {value}: a size cannot be negative")
    return value


# option groups: (flag, add_argument keywords), in the order of --help
_OPTION_GROUPS = {
    "common": (
        ("--group", dict(required=True,
                         help="Cartan spec, e.g. A3, B2xA1, D4")),
        ("--output", dict(choices=["json", "csv", "text"], default="json")),
        ("--cap", dict(type=_cap, default=DEFAULT_CAP,
                       help="abort if a Weyl enumeration, for char the "
                            "dimension of the module, or for jantzen-rhs "
                            "its number of terms or the dimension bounding "
                            "its weight tables, exceeds this size")),
        ("--print-numbering", dict(
            action="store_true",
            help="print the simple-root numbering table and exit")),
    ),
    "theta": (
        ("--theta", dict(default="",
                         help="1-based simple indices of the Levi, comma "
                              "list; empty for the Borel")),
    ),
    "lambda": (
        ("--lambda", dict(dest="lam", default="",
                          help="weight in fundamental-weight coordinates, "
                               "comma list")),
    ),
    "height": (
        ("--method", dict(default="all",
                          choices=["all", "substitution", "fixed-point",
                                   "harmo-bott"])),
        ("--y", dict(default="",
                     help="localization vector (alpha_i(Y) values), comma "
                          "list")),
    ),
}

# subcommand -> (help line, option groups, document builder).  The groups
# give the subcommand its options; main parses --lambda, --theta and --y
# where the subcommand has them and passes them to the builder as lam, pd
# and Y, after the arguments and the root system
_SUBCOMMANDS = {
    "height": ("height of (G/P_theta, L_lambda)",
               ("common", "theta", "lambda", "height"), _height_doc),
    "jantzen-rhs": ("prime-indexed character table of the sum formula",
                    ("common", "theta", "lambda"), _jantzen_doc),
    "char": ("weight multiplicities of the irreducible module",
             ("common", "lambda"), _char_doc),
    "dim": ("dimension of the irreducible module", ("common", "lambda"),
            _dim_doc),
    "bwb": ("dotted-action normal form (cohomology degree, dominant "
            "weight)", ("common", "lambda"), _bwb_doc),
    "scan": ("heights of all maximal parabolics of a group",
             ("common", "height"), _scan_docs),
}


def _add_options(parser, command: str) -> None:
    """Add the options of a subcommand to parser."""
    for group in _SUBCOMMANDS[command][1]:
        for flag, kwargs in _OPTION_GROUPS[group]:
            parser.add_argument(flag, **kwargs)


def build_argument_parser():
    """The full tree, an argparse.ArgumentParser: the top-level parser and
    one subparser per subcommand."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="flagheight",
        description="Exact heights of flag varieties from root-system data.")
    sub = parser.add_subparsers(dest="command", required=False)
    for command, (help_line, *_) in _SUBCOMMANDS.items():
        _add_options(sub.add_parser(command, help=help_line), command)
    return parser


def _plain_args(command: str, tokens):
    """The arguments that the subcommand's parser gives for a plain command
    line, without building that parser; None for any other line.  In a
    plain line every token is an option of the subcommand spelled in full,
    --group among them, and each value follows its option after '=' (and is
    not '--') or as the next token (and does not start with '-'), and
    passes the option's type and choices.  Help, abbreviations, stray
    tokens and every error are left to argparse."""
    options = {flag: kwargs for group in _SUBCOMMANDS[command][1]
               for flag, kwargs in _OPTION_GROUPS[group]}
    dests, values = {}, {}
    for flag, kwargs in options.items():
        dests[flag] = kwargs.get("dest", flag[2:].replace("-", "_"))
        values[dests[flag]] = kwargs.get(
            "default", False if kwargs.get("action") else None)
    given = set()
    tokens = iter(tokens)
    for token in tokens:
        flag, eq, value = token.partition("=")
        kwargs = options.get(flag)
        if kwargs is None or eq and kwargs.get("action"):
            return None
        if kwargs.get("action"):
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        elif value == "--":  # argparse drops it from the value
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except Exception:  # every error is argparse's to report
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dests[flag]] = value
        given.add(flag)
    if "--group" not in given:
        return None
    return SimpleNamespace(**values)


def _parse_args(argv):
    """The parsed arguments, with .command set; None, after printing the
    top-level help, if no subcommand is named.  Exits as argparse does on
    -h and on errors.

    A plain line of a named subcommand is read without argparse
    (_plain_args).  Every other line goes to the full tree of
    build_argument_parser, so all help, usage and error text is
    argparse's."""
    if argv and argv[0] in _SUBCOMMANDS:
        args = _plain_args(argv[0], argv[1:])
        if args is not None:
            args.command = argv[0]
            return args
    parser = build_argument_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return None
    return args


def _attach_negative_values(argv) -> list:
    """Write `--lambda -1,0` as `--lambda=-1,0`, and so `--y -.5,1`,
    `--theta -1,2` and the abbreviations of --lambda and --theta: argparse
    takes a value that starts with '-' and is not a lone number for an
    option."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        number = tok[1:2].isdigit() or tok[1:2] == "." and tok[2:3].isdigit()
        if (prev == "--y" or len(prev) > 2 and (
                "--lambda".startswith(prev) or "--theta".startswith(prev))) \
                and tok[:1] == "-" and number:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


# error kind -> exit code; the first kind that the error is an instance of
# gives the code
_EXIT_CODES = (
    ((_ParseError, InvalidCartanSpec), EXIT_PARSE),
    (GroupTooLarge, EXIT_CAP),
    (InvariantViolation, EXIT_CROSSCHECK),
    (ValueError, EXIT_MATH),  # NotAmple, NotRegularY and the other checks
)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    if args is None:
        return EXIT_PARSE

    limit = sys.get_int_max_str_digits()
    try:
        # the options are read under the interpreter's digit limit; the
        # answers, which may have more digits, are formed and rendered in full
        rs = build_root_system(parse_cartan_spec(args.group))
        if args.print_numbering:
            out = rs.numbering_table() + "\n"
        else:
            values, given = {}, vars(args)
            if "lam" in given:
                values["lam"] = rs.check_weight(
                    _parse_list(args.lam, int, "--lambda"))
            if "theta" in given:
                values["pd"] = build_parabolic(rs, [
                    i - 1 for i in _parse_list(args.theta, int, "--theta")])
            if "y" in given:
                values["Y"] = _parse_list(args.y, Fraction, "--y") or None
            sys.set_int_max_str_digits(0)
            out = _emit(_SUBCOMMANDS[args.command][2](args, rs, **values),
                        args.output)
    except (ValueError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MethodDisagreement):
            print(json.dumps(_disagreement_doc(exc), sort_keys=True),
                  file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES
                    if isinstance(exc, kind))
    finally:
        sys.set_int_max_str_digits(limit)

    _write(out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
