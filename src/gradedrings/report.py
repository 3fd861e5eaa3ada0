"""Verdict reports: a fixed table of named sub-checks, printed one per line.

A report class lists its sub-checks in CHECKS as (field, label) pairs in
print order.  Each field holds True, False, or None for a check that was not
run; a label may name other fields of the report as "{self.field}".  The
verdict `ok` holds when no sub-check is False.
"""

from __future__ import annotations


class VerificationError(Exception):
    """An independent re-check rejected a result the library was about to
    return: an internal fault, never a verdict about the input."""


class Report:
    CHECKS: tuple = ()

    def _extra(self) -> list:
        """(line, passed) rows printed after CHECKS; passed is None for a
        row that reports a count rather than a check."""
        return []

    def _rows(self) -> list:
        rows = []
        for attr, label in self.CHECKS:
            passed = getattr(self, attr)
            if passed is not None:
                rows.append((f"{label.format(self=self)}: "
                             f"{'pass' if passed else 'FAIL'}", passed))
        return rows + self._extra()

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self._rows() if passed is not None)

    def lines(self) -> list:
        return [line for line, _ in self._rows()] + getattr(self, "failures", [])
