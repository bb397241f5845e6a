"""Every command line the benchmark runs still parses.

bench/workloads.py lists each workload's CLI operations, and
bench/worker.py checks a verify or radical result with one more
``stci-gens --j J`` or ``min-primes --j J`` call on the same file.  A
CLI change that rejects any of them fails here, not only when the
benchmark runs.
"""

from pathlib import Path

import pytest

from starconfig.cli import _build_parser

BENCH = Path(__file__).resolve().parent.parent / "bench"


def benchmark_argvs():
    """(workload, argv) for every operation and every check call."""
    from workloads import WORKLOADS

    for name, cases in WORKLOADS.items():
        for case in cases:
            for op in case.ops:
                yield name, [*op, "arr.json"]
                if op[0] == "verify":
                    yield name, ["stci-gens", "--j", op[-1], "arr.json"]
                elif op[0] == "radical":
                    yield name, ["min-primes", "--j", op[-1], "arr.json"]


def test_every_benchmark_command_line_parses(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    parser = _build_parser()
    seen = set()
    for name, argv in benchmark_argvs():
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{name}: {' '.join(argv)}: {capsys.readouterr().err}")
        assert args.subcommand == argv[0]
        seen.add(argv[0])
    assert {"verify", "stci-gens", "radical", "min-primes"} <= seen
