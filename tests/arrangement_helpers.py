"""Arrangement edits and probes that only tests need."""

import time

from starconfig.arrangements import Arrangement


def delete(arr, label):
    """Arrangement with one form removed and labels reassigned."""
    arr.form(label)
    rows = [row for i, row in enumerate(arr.forms, 1) if i != label]
    return Arrangement(arr.field, rows, names=arr.ring.names)


def count_products(monkeypatch, wait_on=None):
    """The label tuples of every Arrangement.product call from now on;
    call number wait_on first sleeps for a second."""
    calls = []
    product = Arrangement.product

    def counted(self, labels):
        calls.append(labels)
        if len(calls) == wait_on:
            time.sleep(1.0)
        return product(self, labels)

    monkeypatch.setattr(Arrangement, "product", counted)
    return calls
