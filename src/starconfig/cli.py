"""Command line interface: JSON reports over arrangement files.

An arrangement file is JSON with a field spec, an optional variable
list, and the coefficient rows of the forms.  Every subcommand prints
a single JSON report to stdout and exits 0 when the computed claim
holds, 1 when it fails, 2 on bad input or usage, and 3 when a budget
ran out before an answer was reached.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from .arrangements import Arrangement, random_generic_arrangement
from .errors import ParseError, StarConfigError, UsageError
from .fields import QQ, Field, GF, PrimeField, RationalField
from .stci import (
    CORRUPTION_MODES,
    corrupt_certificate,
    sv_ara_partition,
    sv_check_partition,
    theorem_generators,
    verify_certificate,
)


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


def field_spec_of(f: Field) -> str:
    if isinstance(f, RationalField):
        return "QQ"
    if isinstance(f, PrimeField):
        return f"GF({f.characteristic})"
    raise UsageError(f"no spec for field {f!r}")


def _parse_coeff(token) -> Fraction:
    if isinstance(token, bool):
        raise ParseError(f"coefficient {token!r} is not a number")
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, str):
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"cannot parse coefficient {token!r}") from e
    raise ParseError(f"coefficient {token!r} must be an integer or a fraction string")


@dataclass
class ArrangementFile:
    """Parsed arrangement file: field spec, raw rows, optional names.

    Coefficients are held as exact rationals so the same file can be
    built over the rationals or reduced into a prime field.
    """

    field_spec: str
    rows: tuple
    names: tuple | None = None

    @staticmethod
    def from_json(data: dict) -> "ArrangementFile":
        if not isinstance(data, dict):
            raise ParseError("arrangement file must be a JSON object")
        spec = data.get("field", "QQ")
        if not isinstance(spec, str):
            raise ParseError('"field" must be a string like "QQ" or "GF(32003)"')
        parse_field_spec(spec)
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
        return ArrangementFile(field_spec=spec, rows=tuple(rows), names=names)

    def to_json(self) -> dict:
        def show(c: Fraction):
            return int(c) if c.denominator == 1 else str(c)

        data = {
            "field": self.field_spec,
            "forms": [[show(c) for c in row] for row in self.rows],
        }
        if self.names is not None:
            data["variables"] = list(self.names)
        return data

    def build(self, override: Field | None = None) -> Arrangement:
        f = override if override is not None else parse_field_spec(self.field_spec)
        rows = []
        for row in self.rows:
            converted = []
            for c in row:
                if isinstance(f, PrimeField):
                    p = f.characteristic
                    if c.denominator % p == 0:
                        raise ParseError(
                            f"coefficient {c} has denominator divisible by {p}"
                        )
                    converted.append(
                        f.mul(f.from_int(c.numerator), f.inv(f.from_int(c.denominator)))
                    )
                else:
                    converted.append(c)
            rows.append(tuple(converted))
        return Arrangement(f, rows, names=self.names)


def parse_arrangement(text: str) -> ArrangementFile:
    """Parse the JSON text of an arrangement file."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from e
    return ArrangementFile.from_json(data)


def _emit(data: dict):
    """Print one JSON document to stdout."""
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _build_parser() -> argparse.ArgumentParser:
    # the shared flags live on a parent parser and use SUPPRESS so they
    # can be given before or after the subcommand without the
    # subparser's default clobbering an earlier value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--field",
        default=argparse.SUPPRESS,
        help="override the file's field: QQ or GF(p)",
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="seed for randomized subcommands"
    )
    common.add_argument(
        "--budget-seconds",
        type=float,
        default=argparse.SUPPRESS,
        help="soft time budget; verification past it reports inconclusive",
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

    p = command("check-generic", "test s-wise independence")
    p.add_argument("--s", type=int, required=True)

    p = command("afold", "generators of the a-fold product ideal")
    p.add_argument("--a", type=int, required=True)

    p = command("min-primes", "minimal primes for a = n - j")
    p.add_argument("--j", type=int, required=True)

    p = command("radical", "radical as an intersection of minimal primes")
    p.add_argument("--j", type=int, required=True)

    p = command("height", "height of the a-fold ideal, a = n - j")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--j", type=int)
    g.add_argument("--all-j", action="store_true")

    command("min-distance", "forms minus the largest degenerate subset")

    p = command("stci-gens", "the explicit j+1 radical generators")
    p.add_argument("--j", type=int, required=True)

    p = command("verify", "verify the explicit generators")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--j", type=int)
    g.add_argument("--all-j", action="store_true")
    p.add_argument(
        "--mode",
        choices=("groebner", "combinatorial", "both"),
        default="both",
    )
    p.add_argument(
        "--corrupt",
        choices=CORRUPTION_MODES,
        help="mutate the certificate first; verification should then fail",
    )

    p = command("sv-partition", "level partition bounding the arithmetic rank")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--j", type=int)
    g.add_argument("--all-j", action="store_true")
    p.add_argument("--check-only", action="store_true", help="skip the level sums")

    p = command("random", "sample an arrangement with independent k-subsets", needs_input=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

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
    seed = getattr(args, "seed", None)
    budget = getattr(args, "budget_seconds", None)
    try:
        if budget is not None and not budget >= 0:
            raise UsageError(f"--budget-seconds must be a nonnegative number, got {budget}")
        override = parse_field_spec(field_flag) if field_flag else None

        if args.subcommand == "random":
            arr = random_generic_arrangement(args.k, args.n, field=override, seed=seed)
            _emit(ArrangementFile(field_spec_of(arr.field), arr.coeff_rows()).to_json())
            return 0

        text = _read_input(args.input)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        afile = parse_arrangement(text)
        arr = afile.build(override)
        field_name = field_spec_of(arr.field)
        ring = arr.ring

        exit_code = 0
        results: dict = {}
        arguments: dict = {}

        if args.subcommand == "check-generic":
            arguments = {"s": args.s}
            witness = arr.s_generic_witness(args.s)
            results = {
                "s": args.s,
                "is_generic": witness is None,
                "witness": list(witness) if witness else None,
            }
            exit_code = 0 if witness is None else 1

        elif args.subcommand == "afold":
            arguments = {"a": args.a}
            ideal = arr.afold_ideal(args.a)
            results = {
                "a": args.a,
                "generator_count": len(ideal.gens),
                "generators": [str(g) for g in ideal.gens],
            }

        elif args.subcommand == "min-primes":
            arguments = {"j": args.j}
            primes = arr.minimal_linear_primes(args.j)
            results = {
                "j": args.j,
                "a": arr.n - args.j,
                "count": len(primes),
                "primes": [
                    {
                        "height": p.height,
                        "support": list(p.support),
                        "generators": [str(g) for g in p.gens_in(ring)],
                    }
                    for p in primes
                ],
            }

        elif args.subcommand == "radical":
            arguments = {"j": args.j}
            rad = arr.combinatorial_radical(args.j)
            results = {
                "j": args.j,
                "a": arr.n - args.j,
                "generator_count": len(rad.gens),
                "generators": [str(g) for g in rad.gens],
            }

        elif args.subcommand == "height":
            if args.all_j:
                arguments = {"all_j": True}
                results = {
                    "heights": {str(j): arr.height_afold(j) for j in range(arr.n)}
                }
            else:
                arguments = {"j": args.j}
                results = {"j": args.j, "height": arr.height_afold(args.j)}

        elif args.subcommand == "min-distance":
            results = {"min_distance": arr.min_distance(), "n": arr.n, "rank": arr.rank()}

        elif args.subcommand == "stci-gens":
            arguments = {"j": args.j}
            cert = theorem_generators(arr, args.j)
            results = {
                "j": cert.j,
                "count": len(cert.gens),
                "levels": cert.levels,
                "generators": [str(g) for g in cert.gens],
            }

        elif args.subcommand == "verify":
            if args.all_j:
                r = arr.rank()
                js = [0]
                if arr.is_s_generic(r):
                    js += list(range(1, r - 1))
            else:
                js = [args.j]
            arguments = {
                "j": None if args.all_j else args.j,
                "all_j": args.all_j,
                "mode": args.mode,
                "corrupt": args.corrupt,
            }
            reports = []
            statuses = []
            for j in js:
                cert = theorem_generators(arr, j)
                if args.corrupt:
                    cert = corrupt_certificate(cert, args.corrupt)
                remaining = None
                if budget is not None:
                    remaining = max(0.0, budget - (time.monotonic() - t0))
                rep = verify_certificate(cert, mode=args.mode, budget_seconds=remaining)
                reports.append(asdict(rep))
                statuses.append(rep.status)
            results = {"reports": reports} if args.all_j else reports[0]
            if any(s == "fails" for s in statuses):
                exit_code = 1
            elif any(s == "inconclusive" for s in statuses):
                exit_code = 3

        elif args.subcommand == "sv-partition":
            js = list(range(arr.n)) if args.all_j else [args.j]
            arguments = {
                "j": None if args.all_j else args.j,
                "all_j": args.all_j,
                "check_only": args.check_only,
            }
            entries = []
            all_ok = True
            for j in js:
                part = sv_ara_partition(arr, j)
                ok, witness = sv_check_partition(part)
                all_ok = all_ok and ok
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
            exit_code = 0 if all_ok else 1

        _emit({
            "command": args.subcommand,
            "arguments": arguments,
            "field": field_name,
            "input_sha256": digest,
            "seed": seed,
            "results": results,
            "wall_time_seconds": time.monotonic() - t0,
        })
        return exit_code

    except StarConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())
