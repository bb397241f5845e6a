"""Arrangement edits and probes that only tests need."""

import time

from starconfig.arrangements import Arrangement


def delete(arr, label):
    """Arrangement with one form removed and labels reassigned."""
    arr.form(label)
    rows = [row for i, row in enumerate(arr.forms, 1) if i != label]
    return Arrangement(arr.field, rows, names=arr.ring.names)


def count_products(monkeypatch, wait_on=None):
    """The label tuples of every Arrangement.packed_product call from
    now on, the packed kernel that verification expands each product
    with; call number wait_on first sleeps for a second."""
    calls = []
    product = Arrangement.packed_product

    def counted(self, labels):
        calls.append(labels)
        if len(calls) == wait_on:
            time.sleep(1.0)
        return product(self, labels)

    monkeypatch.setattr(Arrangement, "packed_product", counted)
    return calls


def refuse_flats(monkeypatch):
    """Make every enumeration of flats from now on fail the test."""

    def refuse(self):
        raise AssertionError("the flats were built")

    monkeypatch.setattr(Arrangement, "_flats", refuse)
