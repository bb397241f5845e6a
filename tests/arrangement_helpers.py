"""Arrangement edits that only tests need."""

from starconfig.arrangements import Arrangement


def delete(arr, label):
    """Arrangement with one form removed and labels reassigned."""
    arr.form(label)
    rows = [row for i, row in enumerate(arr.forms, 1) if i != label]
    return Arrangement(arr.field, rows, names=arr.ring.names)
