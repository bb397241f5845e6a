"""Command line interface: JSON reports over arrangement files.

An arrangement file is JSON with a field spec, an optional variable
list, and a list of forms, each a list of integer or fraction-string
coefficients.  It is read straight into an ``Arrangement`` over its own
field, or over the one ``--field`` names.  Every subcommand prints
a single JSON report to stdout and exits 0 when the computed claim
holds, 1 when it fails, 2 on bad input or usage, and 3 when a budget
ran out before an answer was reached.  A reader that closes stdout
before the report is written gets exit 2 too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from functools import cache

# the input digest from CPython's built-in SHA-256, which, unlike
# hashlib's, loads no OpenSSL: about 3.5 MiB less resident memory
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .arrangements import Arrangement, random_generic_arrangement
from .errors import GenericityError, ParseError, StarConfigError, UsageError
from .fields import QQ, Field, GF
from .stci import (
    CORRUPTION_MODES,
    corrupt_certificate,
    sv_ara_partition,
    sv_check_partition,
    theorem_generators,
    verify_certificate,
)


# parsed flags that a report shows elsewhere or not at all; every other
# flag of the subcommand is echoed under "arguments"
NOT_ARGUMENTS = frozenset({"subcommand", "input", "field", "budget_seconds"})


def parse_field_spec(spec: str) -> Field:
    """Field from its name, QQ or GF(p), in any letter case."""
    low = spec.strip().lower()
    if low == "qq":
        return QQ
    body = low[3:-1]
    if low.startswith("gf(") and low.endswith(")") and body.isdecimal():
        try:
            return GF(int(body))
        except UsageError as e:
            raise ParseError(f"bad field {spec!r}: {e}") from e
    raise ParseError(f"cannot parse field spec {spec!r}; expected QQ or GF(p)")


def _parse_coeff(token) -> Fraction:
    if isinstance(token, bool):
        raise ParseError(f"coefficient {token!r} is not a number")
    if isinstance(token, (int, str)):
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"cannot parse coefficient {token!r}") from e
    raise ParseError(f"coefficient {token!r} must be an integer or a fraction string")


def parse_arrangement(text: str, field: Field | None = None) -> Arrangement:
    """Arrangement from the JSON text of an arrangement file.

    The forms are built over ``field`` when one is given, else over the
    file's own field.  The whole file is checked, its own field spec
    included, before any coefficient is converted into the field.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from e
    except (ValueError, RecursionError) as e:
        # valid JSON past a decoder limit: an integer longer than
        # sys.get_int_max_str_digits(), or nesting past the recursion limit
        raise ParseError(f"cannot decode JSON: {e}") from e
    if not isinstance(data, dict):
        raise ParseError("arrangement file must be a JSON object")
    spec = data.get("field", "QQ")
    if not isinstance(spec, str):
        raise ParseError('"field" must be a string like "QQ" or "GF(32003)"')
    own_field = parse_field_spec(spec)
    field = own_field if field is None else field
    forms = data.get("forms")
    if not isinstance(forms, list) or not forms:
        raise ParseError('arrangement file needs a nonempty "forms" list')
    rows = []
    for i, row in enumerate(forms):
        if not isinstance(row, list) or not row:
            raise ParseError(f"form {i + 1} must be a nonempty list of coefficients")
        rows.append(tuple(_parse_coeff(c) for c in row))
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(f"forms have mixed lengths {sorted(widths)}")
    names = data.get("variables")
    if names is not None:
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise ParseError('"variables" must be a list of strings')
        if len(names) != len(rows[0]):
            raise ParseError(
                f"{len(names)} variable names for {len(rows[0])}-coefficient forms"
            )
        names = tuple(names)

    def convert(q: Fraction):
        try:
            return field.div(field.from_int(q.numerator), field.from_int(q.denominator))
        except ZeroDivisionError as e:
            raise ParseError(
                f"coefficient {q} has denominator divisible by {field.characteristic}"
            ) from e

    return Arrangement(field, [tuple(convert(q) for q in row) for row in rows], names=names)


def _emit(data: dict):
    """Print one JSON document to stdout."""
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _budget_seconds(text: str) -> float:
    """A number of seconds, refused when it is NaN or negative."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative number, got {text!r}")
    return value


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process, since parse_args keeps no state in it.
    # The shared flag lives on a parent parser and uses SUPPRESS so it
    # can be given before or after the subcommand without the
    # subparser's default clobbering an earlier value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--field",
        default=argparse.SUPPRESS,
        help="override the file's field: QQ or GF(p)",
    )

    parser = argparse.ArgumentParser(
        prog="starconfig",
        description="a-fold products of linear forms: primes, heights, "
        "explicit radical generators, and their verification",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text, parents=[common])
        if needs_input:
            p.add_argument("input", help="arrangement file path, or - for stdin")
        return p

    def j_or_all_j(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--j", type=int)
        g.add_argument("--all-j", action="store_true")

    p = command("check-generic", "test s-wise independence")
    p.add_argument("--s", type=int, required=True)

    p = command("afold", "generators of the a-fold product ideal")
    p.add_argument("--a", type=int, required=True)

    p = command("min-primes", "minimal primes for a = n - j")
    p.add_argument("--j", type=int, required=True)

    p = command("radical", "radical as an intersection of minimal primes")
    p.add_argument("--j", type=int, required=True)

    p = command("height", "height of the a-fold ideal, a = n - j")
    j_or_all_j(p)

    command("min-distance", "forms minus the largest degenerate subset")

    p = command("stci-gens", "the explicit j+1 radical generators")
    p.add_argument("--j", type=int, required=True)

    p = command("verify", "verify the explicit generators")
    j_or_all_j(p)
    # kept only because the benchmark's verify workloads pass --mode both
    p.add_argument("--mode", choices=("both",), default="both")
    p.add_argument(
        "--corrupt",
        choices=CORRUPTION_MODES,
        help="mutate the certificate first; verification should then fail",
    )
    p.add_argument(
        "--budget-seconds",
        type=_budget_seconds,
        help="soft time budget; verification past it reports inconclusive",
    )

    p = command("sv-partition", "level partition bounding the arithmetic rank")
    j_or_all_j(p)
    p.add_argument("--check-only", action="store_true", help="skip the level sums")

    p = command("random", "sample an arrangement with independent k-subsets", needs_input=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, help="seed of the sampler")

    return parser


def _read_input(path: str) -> str:
    try:
        if path == "-":
            # decoded here, as a file is, not by the locale's error handler
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{'stdin' if path == '-' else path} is not UTF-8 text: {e}") from e


def run(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2

    t0 = time.monotonic()
    field_flag = getattr(args, "field", None)
    try:
        override = parse_field_spec(field_flag) if field_flag else None

        if args.subcommand == "random":
            arr = random_generic_arrangement(args.k, args.n, field=override, seed=args.seed)
            rows = [[int(c) if c.denominator == 1 else str(c) for c in r] for r in arr.forms]
            _emit({"field": repr(arr.field), "forms": rows})
            return 0

        text = _read_input(args.input)
        digest = sha256(text.encode("utf-8")).hexdigest()
        arr = parse_arrangement(text, override)

        exit_code = 0
        if args.subcommand == "check-generic":
            witness = arr.s_generic_witness(args.s)
            results = {
                "s": args.s,
                "is_generic": witness is None,
                "witness": list(witness) if witness else None,
            }
            exit_code = 0 if witness is None else 1

        elif args.subcommand == "afold":
            ideal = arr.afold_ideal(args.a)
            results = {
                "a": args.a,
                "generator_count": len(ideal.gens),
                "generators": [str(g) for g in ideal.gens],
            }

        elif args.subcommand == "min-primes":
            primes = arr.minimal_linear_primes(args.j)
            results = {
                "j": args.j,
                "a": arr.n - args.j,
                "count": len(primes),
                "primes": [
                    {
                        "height": p.height,
                        "support": list(p.support),
                        "generators": [str(g) for g in p.gens_in(arr.ring)],
                    }
                    for p in primes
                ],
            }

        elif args.subcommand == "radical":
            rad = arr.combinatorial_radical(args.j)
            results = {
                "j": args.j,
                "a": arr.n - args.j,
                "generator_count": len(rad.gens),
                "generators": [str(g) for g in rad.gens],
            }

        elif args.subcommand == "height":
            if args.all_j:
                results = {"heights": {str(j): arr.height_afold(j) for j in range(arr.n)}}
            else:
                results = {"j": args.j, "height": arr.height_afold(args.j)}

        elif args.subcommand == "min-distance":
            results = {"min_distance": arr.min_distance(), "n": arr.n, "rank": arr.rank()}

        elif args.subcommand == "stci-gens":
            cert = theorem_generators(arr, args.j)
            results = {
                "j": cert.j,
                "count": len(cert.gens),
                "levels": cert.levels,
                "generators": [str(g) for g in cert.gens],
            }

        elif args.subcommand == "verify":
            # a report speaks only in labels, which a change of variables
            # keeps, so every j is verified where the last forms are variables
            arr = arr.adapted()
            js = range(max(arr.rank() - 1, 1)) if args.all_j else [args.j]
            if args.all_j and arr.rank() > 2:
                # every j >= 1 asks the same genericity: decide it first,
                # so that a refusal of the flats ends the run before j = 0
                # expands a product, and is not taken for a j to skip
                arr.s_generic_witness(arr.rank())
            reports = []
            refusal = None
            for j in js:
                try:
                    cert = theorem_generators(arr, j)
                    if args.corrupt:
                        cert = corrupt_certificate(cert, args.corrupt)
                except (GenericityError, UsageError) as e:  # no certificate at this j; skip it
                    refusal = refusal or e
                    continue
                remaining = None
                if args.budget_seconds is not None:
                    remaining = max(0.0, args.budget_seconds - (time.monotonic() - t0))
                rep = verify_certificate(cert, budget_seconds=remaining)
                reports.append(asdict(rep))
            if not reports:
                raise refusal
            results = {"reports": reports} if args.all_j else reports[0]
            statuses = [r["status"] for r in reports]
            if "fails" in statuses:
                exit_code = 1
            elif "inconclusive" in statuses:
                exit_code = 3

        elif args.subcommand == "sv-partition":
            js = list(range(arr.n)) if args.all_j else [args.j]
            entries = []
            for j in js:
                part = sv_ara_partition(arr, j)
                ok, witness = sv_check_partition(part)
                entry = {
                    "j": j,
                    "valid": ok,
                    "witness": witness,
                    "levels": part.levels,
                    "level_count": len(part.levels),
                }
                if not args.check_only:
                    entry["sums"] = [str(q) for q in part.gens]
                entries.append(entry)
            results = {"partitions": entries} if args.all_j else entries[0]
            exit_code = 0 if all(e["valid"] for e in entries) else 1

        _emit({
            "command": args.subcommand,
            "arguments": {k: v for k, v in vars(args).items() if k not in NOT_ARGUMENTS},
            "field": repr(arr.field),
            "input_sha256": digest,
            "results": results,
            "wall_time_seconds": time.monotonic() - t0,
        })
        return exit_code

    except StarConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (say, `| head`); point stdout at
        # devnull so that the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        code = 2
    sys.exit(code)
