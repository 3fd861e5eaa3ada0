"""Verdict reports, the one place where sub-check results become `ok`,
pass/FAIL text and the "pass"/"fail" JSON verdict.

A report is a list of (line, passed) rows, passed None for a row that
counts rather than checks: one "label: pass/FAIL" row per check field, a
field declared with check(label), whose value is not None (a label may
name other fields as "{self.field}"), then the rows of `_extra()`, then
the `failures` messages.  `ok` holds when no row is False.  Check fields
start True (or None, unchecked); `fail` alone turns one False, and says
where.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


class VerificationError(Exception):
    """An independent re-check rejected a result the library was about to
    return: an internal fault, never a verdict about the input."""


def check(label: str, start=True):
    """A check field with its row label, keyword-only and starting at start."""
    return field(default=start, kw_only=True, metadata={"label": label})


def check_row(label: str, passed: bool, witness: str = "") -> tuple:
    """"label: pass", "label: pass (witness)" or "label: FAIL"."""
    if not passed:
        return f"{label}: FAIL", False
    return f"{label}: pass" + (f" ({witness})" if witness else ""), True


def verdict_of(*reports: "Report") -> str:
    """The JSON verdict of one or more reports taken together."""
    return "pass" if all(rep.ok for rep in reports) else "fail"


@dataclass
class Report:
    failures: list = field(default_factory=list, kw_only=True)

    @classmethod
    def check_fields(cls) -> list:
        """The (field, label) pairs of the check fields, in row order."""
        return [(f.name, f.metadata["label"]) for f in fields(cls)
                if "label" in f.metadata]

    def fail(self, check: str | None, message: str) -> None:
        """Mark the check field `check` FAIL and record where it failed;
        check is None for an `_extra` row that holds its own verdict."""
        if check is not None:
            setattr(self, check, False)
        self.failures.append(message)

    def _extra(self) -> list:
        return []

    def rows(self) -> list:
        rows = [check_row(label.format(self=self), passed)
                for attr, label in self.check_fields()
                if (passed := getattr(self, attr)) is not None]
        return rows + self._extra() + [(f, None) for f in self.failures]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.rows() if passed is not None)

    def lines(self) -> list:
        return [line for line, _ in self.rows()]

    def summary_row(self, label: str) -> tuple:
        """This report as a row of another: "label: pass" or all its lines."""
        if self.ok:
            return check_row(label, True)
        return f"{label}: " + "; ".join(self.lines()), False

    def to_json(self) -> dict:
        return {"verdict": verdict_of(self), "failures": self.failures}
