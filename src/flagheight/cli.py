"""Command-line front end.

Subcommands: height, jantzen-rhs, char, dim, bwb, scan.  Simple roots are
numbered 1..rank in the deterministic ordering printed by
--print-numbering; --theta and --lambda refer to that numbering.

Exit codes: 0 success, 2 argument or parse error (a negative --cap, an
option number beyond the interpreter's digit limit, a --y in exponent form),
3 invalid mathematical input (non-ample weight, bad localization vector,
out-of-range indices, a jantzen-rhs lambda that does not vanish on
theta), 4 enumeration size cap exceeded (for char: the module's dimension, which
bounds its weight table; for jantzen-rhs: its number of k-loop terms, or
the dimension that bounds each of its weight tables), 5 internal
cross-check failure.  When the height methods disagree, the `error:` line
on stderr is followed by one JSON line with the instance (group, theta,
lambda, y), the values of substitution, fixed_point and harmo_bott, and
w0_paired, true when the localisation sums counted only half of the
cosets (w0 Y = -Y).

JSON output (the default) is `json.dumps(doc, indent=2, sort_keys=True)`
plus a newline, byte for byte; only `elapsed_ms` differs between runs.  The
weight tables of char and jantzen-rhs are built as column tables (_Table),
which _dumps writes with one %d template and the text and csv outputs print
as their lists of records.

A reader that closes stdout early (e.g. `flagheight scan ... | head`) is
not an error: the rest of the output is discarded and the exit code is 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter

from .charpoly import freudenthal, weyl_dim, weyl_product
from .height import (
    MethodDisagreement,
    NotRegularY,
    check_y,
    denominator_check,
    height_all_methods,
    height_fixed_point,
    height_harmo_bott,
    height_substitution,
)
from .jantzen import jantzen_rhs, jantzen_sizes, lambda0_component
from .parabolic import NotAmple, build_parabolic
from .rootsys import InvalidCartanSpec, InvariantViolation, \
    build_root_system, parse_cartan_spec
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


def _theta_zero_based(theta_1based, rank: int) -> frozenset:
    for i in theta_1based:
        if not 1 <= i <= rank:
            raise ValueError(f"theta index {i} out of range 1..{rank}")
    return frozenset(i - 1 for i in theta_1based)


def _require_lambda(lam, rank: int):
    if len(lam) != rank:
        raise ValueError(f"lambda has {len(lam)} coordinates, rank is {rank}")
    return tuple(lam)


class _Table:
    """A list of records with the same keys, held as one column per key:
    columns maps each key to its values, row by row.  A column holds exact
    ints, or int tuples of one width.  _dumps writes a table with one %d
    template; _records gives back the list of dicts it stands for, which
    the text and csv outputs print."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict):
        self.columns = columns


def _records(table) -> list:
    """The list of dicts that a _Table stands for; also json.dumps's
    default hook, so tables nested in a document convert too."""
    if not isinstance(table, _Table):
        raise TypeError(f"{type(table).__name__} is not JSON serializable")
    keys = list(table.columns)
    return [dict(zip(keys, row)) for row in zip(*table.columns.values())]


def _dumps(doc) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True) + "\\n"`, byte for byte,
    for documents of dicts with str keys, lists, ints, bools, None and
    strings, where a _Table stands for its list of records.  A list of ints
    is written by one join and a _Table by one %-format over its
    interleaved columns, not token by token."""
    out = []
    _render(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _render(o, nl: str, out: list) -> None:
    """Append the indented JSON of o to out; nl is the newline plus the
    indentation of the line that o starts on."""
    inner = nl + "  "
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        sep = "{" + inner
        for k in sorted(o):
            out.append(sep + _encode_str(k) + ": ")
            _render(o[k], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
        elif _all_ints(o):
            out.append("[" + inner + ("," + inner).join(map(str, o)) + nl
                       + "]")
        else:
            sep = "[" + inner
            for item in o:
                out.append(sep)
                _render(item, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    elif isinstance(o, _Table):
        out.append(_render_table(o, nl))
    else:
        out.append(json.dumps(o))


def _all_ints(xs) -> bool:
    """True if every item is an exact int (a bool is not)."""
    return set(map(type, xs)) <= {int}


def _render_table(table: _Table, nl: str) -> str:
    """The JSON of a table's records at indentation nl: one %d template
    per record, built from the column shapes, formats every row.  TypeError,
    before anything is formatted, unless every column has the same length
    and holds exact ints or int tuples of one width."""
    keys = sorted(table.columns)
    cols = [table.columns[k] for k in keys]
    rows = len(cols[0]) if cols else 0
    row_nl = nl + "  "
    key_nl = row_nl + "  "
    item_nl = key_nl + "  "
    slots, parts = [], []
    for k, col in zip(keys, cols):
        if len(col) != rows:
            raise TypeError(f"column {k!r} has {len(col)} rows, not {rows}")
        kinds = set(map(type, col))
        if kinds <= {int}:
            slot = "%d"
            parts.append(col)
        elif kinds == {tuple} and len(set(map(len, col))) == 1:
            width = len(col[0])
            slot = ("[" + item_nl + ("," + item_nl).join(["%d"] * width)
                    + key_nl + "]") if width else "[]"
            parts += [map(itemgetter(j), col) for j in range(width)]
        else:
            raise TypeError(f"column {k!r} is neither exact ints nor int "
                            "tuples of one width")
        slots.append(_encode_str(k).replace("%", "%%") + ": " + slot)
    if not rows:
        return "[]"
    values = tuple(chain.from_iterable(zip(*parts)))
    if not _all_ints(values):
        raise TypeError("a column tuple holds a value that is not an exact "
                        "int")
    template = "{" + key_nl + ("," + key_nl).join(slots) + row_nl + "}"
    return ("[" + row_nl + ("," + row_nl).join([template] * rows) % values
            + nl + "]")


def _emit(doc: dict, fmt: str, rows=None) -> str:
    """Render a result document: json through _dumps, csv from the flat
    rows, text as aligned key/value lines."""
    if fmt == "json":
        return _dumps(doc)
    if fmt == "csv":
        rows = rows if rows is not None else [_flatten(doc)]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()
    width = max(len(k) for k in doc)
    return "".join(f"{k.ljust(width)}  {_textval(v)}\n"
                   for k, v in doc.items())


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
        v = _records(v)
    if isinstance(v, dict) and set(v) == {"num", "den"}:
        return v["num"] if v["den"] == "1" else f"{v['num']}/{v['den']}"
    if isinstance(v, dict) or (isinstance(v, (list, tuple)) and v
                               and all(isinstance(x, dict) for x in v)):
        return json.dumps(v, sort_keys=True, default=_records)
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


def _height_doc(args, rs, theta, lam, Y) -> dict:
    pd = build_parabolic(rs, theta)
    if args.method == "substitution":
        check_y(rs, Y)  # no Y in this kernel, but the same --y is refused
    start = time.monotonic()
    res = _HEIGHT_METHODS[args.method](pd, lam, Y, args.cap)
    elapsed_ms = int(1000 * (time.monotonic() - start))
    c = rs.coxeter_number
    doc = {
        "group": str(rs.spec),
        "theta": sorted(i + 1 for i in theta),
        "lambda": list(lam),
        "dim": pd.dim,
        "height": _rational(res.value),
        "methods_agreed": True if args.method == "all" else None,
        "coxeter": c,
        "cor82_ok": denominator_check(res, 2 * c - 2),
        "conjecture_ok": denominator_check(res, c - 1),
        "elapsed_ms": elapsed_ms,
    }
    if args.check_conjecture and args.output == "text":
        doc["conjecture_note"] = (
            f"prime powers in denom(2h) vs bound {c - 1}: "
            f"{'ok' if doc['conjecture_ok'] else 'exceeded'}")
    return doc


def _disagreement_doc(exc: MethodDisagreement) -> dict:
    """The instance and every method's value, for the stderr diagnostic."""
    doc = {
        "group": str(exc.pd.rs.spec),
        "theta": sorted(i + 1 for i in exc.pd.theta),
        "lambda": list(exc.lam),
        "y": [_rational(v) for v in exc.y],
        "w0_paired": exc.w0_paired,
    }
    doc.update((method, _rational(value))
               for method, value in exc.values.items())
    return doc


def _jantzen_doc(args, rs, theta, lam) -> dict:
    pd = build_parabolic(rs, theta)
    terms, dim = jantzen_sizes(pd, lam)
    if terms > args.cap:
        raise GroupTooLarge(f"the sum at {list(lam)} has {terms} terms, "
                            f"exceeding the cap {args.cap}")
    if dim > args.cap:
        raise GroupTooLarge(
            f"the weight tables of the sum at {list(lam)} are bounded by "
            f"dimension {dim}, exceeding the cap {args.cap}")
    combo = jantzen_rhs(pd, lam)
    lam0 = lambda0_component(combo, pd, lam)
    return {
        "group": str(rs.spec),
        "theta": sorted(i + 1 for i in theta),
        "lambda": list(lam),
        "primes": {str(p): _weight_table(bucket, "coeff")
                   for p, bucket in sorted(combo.terms.items())},
        "lambda0_component_zero": not lam0,
    }


def _char_doc(args, rs, lam) -> dict:
    if not rs.is_dominant(lam):
        raise ValueError(f"lambda {list(lam)} is not dominant")
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
        "weights": _weight_table(table, "mult", reverse=True),
    }


def _weight_table(table: dict, name: str, reverse: bool = False) -> _Table:
    """The records {weight, name} of a weight -> int table, by weight."""
    weights = sorted(table, reverse=reverse)
    return _Table({"weight": weights,
                   name: list(map(table.__getitem__, weights))})


def _dim_doc(args, rs, lam) -> dict:
    if not rs.is_dominant(lam):
        raise ValueError(f"lambda {list(lam)} is not dominant")
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
        theta = frozenset(range(rs.rank)) - {i}
        lam = tuple(1 if j == i else 0 for j in range(rs.rank))
        docs.append(_height_doc(args, rs, theta, lam, Y))
    return docs


def _cap(text: str) -> int:
    """--cap: an int that is not negative, with argparse's own wording for
    text that is not an int."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
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
        ("--check-conjecture", dict(
            action="store_true",
            help="also print the conjectural denominator verdict")),
    ),
}

# subcommand -> (help line, option groups)
_SUBCOMMANDS = {
    "height": ("height of (G/P_theta, L_lambda)",
               ("common", "theta", "lambda", "height")),
    "jantzen-rhs": ("prime-indexed character table of the sum formula",
                    ("common", "theta", "lambda")),
    "char": ("weight multiplicities of the irreducible module",
             ("common", "lambda")),
    "dim": ("dimension of the irreducible module", ("common", "lambda")),
    "bwb": ("dotted-action normal form (cohomology degree, dominant "
            "weight)", ("common", "lambda")),
    "scan": ("heights of all maximal parabolics of a group",
             ("common", "height")),
}


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    """Add the options of a subcommand to parser."""
    for group in _SUBCOMMANDS[command][1]:
        for flag, kwargs in _OPTION_GROUPS[group]:
            parser.add_argument(flag, **kwargs)


def build_argument_parser() -> argparse.ArgumentParser:
    """The full tree: the top-level parser and one subparser per
    subcommand."""
    parser = argparse.ArgumentParser(
        prog="flagheight",
        description="Exact heights of flag varieties from root-system data.")
    sub = parser.add_subparsers(dest="command", required=False)
    for command, (help_line, _) in _SUBCOMMANDS.items():
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
            except argparse.ArgumentTypeError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dests[flag]] = value
        given.add(flag)
    if "--group" not in given:
        return None
    return argparse.Namespace(**values)


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
    """Write `--lambda -1,0` as `--lambda=-1,0`, and so `--y -.5,1` and the
    abbreviations of --lambda: argparse takes a value that starts with '-'
    and is not a lone number for an option."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        number = tok[1:2].isdigit() or tok[1:2] == "." and tok[2:3].isdigit()
        if (prev == "--y" or len(prev) > 2 and "--lambda".startswith(prev)) \
                and tok[:1] == "-" and number:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    if args is None:
        return EXIT_PARSE

    try:
        rs = build_root_system(parse_cartan_spec(args.group))
    except InvalidCartanSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    if args.print_numbering:
        _write(rs.numbering_table() + "\n")
        return EXIT_OK

    limit = sys.get_int_max_str_digits()
    try:
        # the options are read under the interpreter's digit limit; the
        # answers, which may have more digits, are formed and rendered in full
        if args.command != "scan":
            lam = _require_lambda(_parse_list(args.lam, int, "--lambda"),
                                  rs.rank)
        if args.command in ("height", "jantzen-rhs"):
            theta = _theta_zero_based(
                _parse_list(args.theta, int, "--theta"), rs.rank)
        if args.command in ("height", "scan"):
            Y = _parse_list(args.y, Fraction, "--y") or None
        sys.set_int_max_str_digits(0)
        if args.command == "scan":
            docs = _scan_docs(args, rs, Y)
            if args.output == "json":
                out = _dumps(docs)
            elif args.output == "csv":
                out = _emit(docs[0], "csv", [_flatten(d) for d in docs])
            else:
                out = "".join(_emit(d, "text") + "\n" for d in docs)
        else:
            if args.command == "height":
                doc = _height_doc(args, rs, theta, lam, Y)
            elif args.command == "jantzen-rhs":
                doc = _jantzen_doc(args, rs, theta, lam)
            elif args.command == "char":
                doc = _char_doc(args, rs, lam)
            elif args.command == "dim":
                doc = _dim_doc(args, rs, lam)
            else:
                doc = _bwb_doc(args, rs, lam)
            out = _emit(doc, args.output)
    except _ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GroupTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MethodDisagreement):
            print(json.dumps(_disagreement_doc(exc), sort_keys=True),
                  file=sys.stderr)
        return EXIT_CROSSCHECK
    except (NotAmple, NotRegularY, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    finally:
        sys.set_int_max_str_digits(limit)

    _write(out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
