"""The benchmark tracer finds every starconfig name it wraps.

bench/tracer.py patches functions and methods by name.  A name that the
program renames or deletes is skipped with a "not found" line on stderr,
and its per-layer metrics then read 0; this test fails on that line.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_every_patch_and_undoes_them(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import starconfig.cli  # noqa: F401  (the tracer rebinds names in every loaded module)
    from starconfig import groebner, stci
    from tracer import Tracer

    original = groebner.buchberger
    tracer = Tracer()
    try:
        tracer.install_spans()
        tracer.install_counters()
        assert groebner.buchberger is not original
    finally:
        tracer.undo()
    assert "not found" not in capsys.readouterr().err
    assert groebner.buchberger is original
    assert stci.radical_member is groebner.radical_member
    assert stci.Ideal is groebner.Ideal
