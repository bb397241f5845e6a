"""Arrangement edits that only tests need."""

from starconfig.arrangements import Arrangement


def delete(arr, label):
    """Arrangement with one form removed and labels reassigned."""
    arr.form(label)
    rows = [g.coeffs for g in arr.forms if g.label != label]
    return Arrangement(arr.field, rows, names=arr.ring.names)
