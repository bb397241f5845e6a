"""Spans and counters around starconfig's public functions.

Nothing here is part of the program: the wrappers are installed from
the benchmark and removed again.  A function is wrapped once and the
wrapper is rebound in every starconfig module namespace that holds the
original, so the ``from .groebner import reduce`` copy in stci is seen
as well as the calls inside groebner.  Methods are patched on their
class.  Spans are kept in memory as [name, start, end, parent index,
child seconds, note] and written out when the run ends.

Span names are the per-layer metric prefixes of BENCHMARK.json.  A few
names are views of one call from the caller's side: stci's binding of
radical_member is wrapped once more as ``stci.afold_in_cert`` (tested
against the certificate ideal) or ``stci.cert_in_afold``, and stci's
binding of reduce as ``stci.minprime_check``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import weakref
from collections import defaultdict

ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__")
ARRANGEMENT_SPANS = (
    "afold_ideal",
    "minimal_linear_primes",
    "combinatorial_radical",
    "min_distance",
    "s_generic_witness",
)


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind(self, module, attr, make):
        """Replace module.attr by make(original) wherever starconfig holds it."""
        original = vars(module).get(attr)
        if original is None:
            print(f"trace: {module.__name__}.{attr} not found; its metrics read 0", file=sys.stderr)
            return
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "starconfig" or name.startswith("starconfig."):
                if vars(mod).get(attr) is original:
                    self.set(mod, attr, wrapped)

    def wrap(self, owner, attr, make):
        """Replace one binding (a module global or a class attribute)."""
        if attr not in vars(owner):
            print(f"trace: {owner.__name__}.{attr} not found; its metrics read 0", file=sys.stderr)
            return
        self.set(owner, attr, make(vars(owner)[attr]))

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer(Patches):
    def __init__(self):
        super().__init__()
        self.spans = []
        self.stack = []
        self.cells = defaultdict(lambda: [0])
        self.ideal_tags = weakref.WeakKeyDictionary()
        self.gb_seen = weakref.WeakKeyDictionary()
        self.primes_seen = weakref.WeakKeyDictionary()
        self.last_spoly = None

    # -- wrappers --------------------------------------------------------

    def span(self, fn, label, after=None):
        """Record a span per call; label is a name or (args, kwargs) -> name
        or None, None meaning the call is not a span."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            if name is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]
            if after is not None:
                rec[5] = after(rec, args, kwargs, result)
            return result

        return traced

    def counter(self, fn, name):
        cell = self.cells[name]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- labels and notes --------------------------------------------------

    def _tagging(self, cls, tag):
        tags = self.ideal_tags

        def make(*args, **kwargs):
            ideal = cls(*args, **kwargs)
            tags[ideal] = tag
            return ideal

        return make

    def _tag_result(self, tag):
        def note(rec, args, kwargs, result):
            self.ideal_tags[result] = tag

        return note

    def _gb_label(self, args, kwargs):
        ideal = args[0]
        order = args[1] if len(args) > 1 else kwargs.get("order")
        seed = args[2] if len(args) > 2 else kwargs.get("seed")
        order = order if order is not None else ideal.ring.order
        seen = self.gb_seen.setdefault(ideal, set())
        if seed is None and order in seen:
            return None
        seen.add(order)
        return "groebner.ideal_gb." + self.ideal_tags.get(ideal, "other")

    def _radical_label(self, args, kwargs):
        ideal = args[1] if len(args) > 1 else kwargs["ideal"]
        tag = self.ideal_tags.get(ideal)
        return "stci.afold_in_cert" if tag == "certificate" else "stci.cert_in_afold"

    def _contains_label(self, args, kwargs):
        return "stci.containment" if self.parent_name() == "stci.verify_certificate" else "groebner.contains"

    def _arith_label(self, args, kwargs):
        return None if self.parent_name() == "polynomials.arith" else "polynomials.arith"

    def _note_spoly(self, rec, args, kwargs, result):
        self.last_spoly = result

    def _note_arity(self, rec, args, kwargs, result):
        """Variable count of the first operand, for radical_member and for
        arithmetic directly under it: the power search multiplies in the
        ideal's ring, the one-extra-variable test in a larger one."""
        if rec[0] == "polynomials.arith" and (
            rec[3] < 0 or self.spans[rec[3]][0] != "groebner.radical_member"
        ):
            return None
        return args[0].ring.nvars

    def _note_reduce(self, rec, args, kwargs, result):
        """Working-basis size and S-pair outcome for reductions inside buchberger."""
        if rec[3] < 0 or self.spans[rec[3]][0] != "groebner.buchberger":
            return None
        spair = args[0] is self.last_spoly
        self.last_spoly = None
        nonzero = not result.is_zero()
        basis = args[1] if len(args) > 1 else kwargs.get("basis", ())
        degree = result.total_degree() if spair and nonzero else -1
        return (len(basis) + nonzero, spair, nonzero, degree)

    def _note_basis(self, rec, args, kwargs, result):
        return (len(result), max((g.total_degree() for g in result), default=0))

    def _note_primes(self, rec, args, kwargs, result):
        arrangement = args[0]
        j = args[1] if len(args) > 1 else kwargs["j"]
        seen = self.primes_seen.setdefault(arrangement, set())
        if j in seen:
            return 0
        seen.add(j)
        return len(result)

    # -- installation --------------------------------------------------------

    def install_spans(self):
        from starconfig import arrangements, cli, groebner, polynomials, stci

        self.rebind(cli, "run", lambda f: self.span(f, "cli"))
        for name in ("theorem_generators", "verify_certificate", "sv_check_partition", "sv_sums"):
            self.rebind(stci, name, lambda f, name=name: self.span(f, "stci." + name))
        self.rebind(groebner, "reduce", lambda f: self.span(f, "groebner.reduce", self._note_reduce))
        self.rebind(
            groebner, "s_polynomial", lambda f: self.span(f, "groebner.s_polynomial", self._note_spoly)
        )
        self.rebind(groebner, "buchberger", lambda f: self.span(f, "groebner.buchberger", self._note_basis))
        self.rebind(
            groebner, "radical_member", lambda f: self.span(f, "groebner.radical_member", self._note_arity)
        )
        self.rebind(groebner, "intersect", lambda f: self.span(f, "groebner.intersect"))
        # stci's own bindings, wrapped once more over the traced groebner calls
        self.wrap(stci, "radical_member", lambda f: self.span(f, self._radical_label))
        self.wrap(stci, "reduce", lambda f: self.span(f, "stci.minprime_check"))
        self.wrap(stci, "Ideal", lambda cls: self._tagging(cls, "certificate"))
        self.wrap(groebner.Ideal, "contains", lambda f: self.span(f, self._contains_label))
        self.wrap(groebner.Ideal, "groebner_basis", lambda f: self.span(f, self._gb_label))
        notes = {"afold_ideal": self._tag_result("afold"), "minimal_linear_primes": self._note_primes}
        for name in ARRANGEMENT_SPANS:
            self.wrap(
                arrangements.Arrangement,
                name,
                lambda f, name=name: self.span(f, "arrangements." + name, notes.get(name)),
            )
        self.rebind(arrangements, "rref", lambda f: self.counter(f, "arrangements.rref.calls"))
        for name in ARITH:
            self.wrap(
                polynomials.Polynomial, name, lambda f: self.span(f, self._arith_label, self._note_arity)
            )
        self.wrap(polynomials.ProductOfForms, "expand", lambda f: self.span(f, "polynomials.expand"))

    def install_counters(self):
        """Call counts of the million-call kernels, kept out of the span
        pass so that their wrappers do not distort its self times."""
        from starconfig import fields, orders

        for name in ("mono_mul", "mono_divides"):
            self.rebind(orders, name, lambda f, name=name: self.counter(f, f"orders.{name}.calls"))
        for cls in (fields.PrimeField, fields.RationalField):
            for name in ("mul", "inv"):
                self.wrap(cls, name, lambda f, name=name: self.counter(f, f"fields.{name}.calls"))

    def count(self, name):
        return self.cells[name][0] if name in self.cells else 0

    # -- results -------------------------------------------------------------

    def dump(self, path, origin):
        """Write spans as JSON lines: [name, start, end, parent, op], with
        times relative to origin and op the index of the root span."""
        ops = []
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, _, _) in enumerate(self.spans):
                ops.append(i if parent < 0 else ops[parent])
                fh.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent, ops[i]]))
                fh.write("\n")


def layer_metrics(spans, lo, hi):
    """Per-layer metrics from the spans with indices in [lo, hi)."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    children = defaultdict(list)
    for i in range(lo, hi):
        name, start, end, parent, child, _ = spans[i]
        total[name] += end - start
        own[name] += end - start - child
        calls[name] += 1
        if parent >= lo:
            children[parent].append(i)

    def kids(i, name):
        return [c for c in children[i] if spans[c][0] == name]

    power_s = 0.0
    attempts = hits = memo_hits = 0
    rabinowitsch_s = 0.0
    rabinowitsch = 0
    for i in range(lo, hi):
        if spans[i][0] != "groebner.radical_member":
            continue
        if not children[i]:
            memo_hits += 1
            continue
        tries = kids(i, "groebner.reduce")
        powers = [c for c in kids(i, "polynomials.arith") if spans[c][5] == spans[i][5]]
        power_s += sum(spans[c][2] - spans[c][1] for c in tries + powers)
        attempts += len(tries)
        solved = kids(i, "groebner.buchberger")
        rabinowitsch += len(solved)
        rabinowitsch_s += sum(spans[c][2] - spans[c][1] for c in solved)
        if tries and not solved:
            hits += 1

    basis_max = degree_max = intersect_basis = 0
    spairs = useful = 0
    primes = 0
    for i in range(lo, hi):
        name, _, _, parent, _, note = spans[i]
        if note is None:
            continue
        if name == "groebner.reduce":
            size, spair, nonzero, degree = note
            basis_max = max(basis_max, size)
            degree_max = max(degree_max, degree)
            spairs += spair
            useful += spair and nonzero
        elif name == "groebner.buchberger":
            basis_max = max(basis_max, note[0])
            degree_max = max(degree_max, note[1])
            if parent >= lo and spans[parent][0] == "groebner.intersect":
                intersect_basis = max(intersect_basis, note[0])
        elif name == "arrangements.minimal_linear_primes":
            primes += note

    return {
        "cli.self_s": own["cli"],
        "stci.theorem_generators.s": total["stci.theorem_generators"],
        "stci.verify_certificate.self_s": own["stci.verify_certificate"],
        "stci.containment.s": total["stci.containment"],
        "stci.afold_in_cert.s": total["stci.afold_in_cert"],
        "stci.afold_in_cert.calls": calls["stci.afold_in_cert"],
        "stci.minprime_check.s": total["stci.minprime_check"],
        "stci.sv_check_partition.s": total["stci.sv_check_partition"],
        "stci.sv_sums.s": total["stci.sv_sums"],
        "groebner.radical_member.calls": calls["groebner.radical_member"],
        "groebner.radical_member.s": total["groebner.radical_member"],
        "groebner.radical_member.memo_hits": memo_hits,
        "groebner.power_search.s": power_s,
        "groebner.power_search.hit_ratio": hits / attempts if attempts else 0.0,
        "groebner.rabinowitsch.calls": rabinowitsch,
        "groebner.rabinowitsch.s": rabinowitsch_s,
        "groebner.ideal_gb.afold.s": total["groebner.ideal_gb.afold"],
        "groebner.ideal_gb.certificate.s": total["groebner.ideal_gb.certificate"],
        "groebner.buchberger.calls": calls["groebner.buchberger"],
        "groebner.buchberger.self_s": own["groebner.buchberger"],
        "groebner.buchberger.basis_max": basis_max,
        "groebner.buchberger.degree_max": degree_max,
        "groebner.s_polynomial.calls": calls["groebner.s_polynomial"],
        "groebner.spair.useful_ratio": useful / spairs if spairs else 0.0,
        "groebner.reduce.calls": calls["groebner.reduce"],
        "groebner.reduce.self_s": own["groebner.reduce"],
        "groebner.intersect.calls": calls["groebner.intersect"],
        "groebner.intersect.s": total["groebner.intersect"],
        "groebner.intersect.basis_max": intersect_basis,
        "arrangements.afold_ideal.s": total["arrangements.afold_ideal"],
        "arrangements.minimal_linear_primes.s": total["arrangements.minimal_linear_primes"],
        "arrangements.minimal_linear_primes.count": primes,
        "arrangements.combinatorial_radical.self_s": own["arrangements.combinatorial_radical"],
        "arrangements.min_distance.s": total["arrangements.min_distance"],
        "arrangements.s_generic_witness.s": total["arrangements.s_generic_witness"],
        "polynomials.arith.calls": calls["polynomials.arith"],
        "polynomials.arith.self_s": own["polynomials.arith"],
        "polynomials.expand.s": total["polynomials.expand"],
    }


def median_metrics(samples):
    """Per-metric median over the traced passes."""
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
