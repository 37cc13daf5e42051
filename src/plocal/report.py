"""Per-check outcome records."""

from __future__ import annotations


class VerificationReport:
    """Outcome of one checked statement instance.

    outcome is one of "pass", "fail", "skipped". A fail always carries a
    witness; a skip always carries a reason naming the violated
    precondition.
    """

    def __init__(self, statement, instance, outcome, witness=None, reason=None, stats=None):
        self.statement, self.instance, self.outcome = statement, instance, outcome
        self.witness, self.reason, self.stats = witness, reason, {} if stats is None else stats

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    @property
    def failed(self) -> bool:
        return self.outcome == "fail"

    def fields(self) -> tuple:
        """The constructor's arguments, in its order: what a worker sends."""
        return self.statement, self.instance, self.outcome, self.witness, self.reason, self.stats

    def to_json_obj(self) -> dict:
        out = {
            "statement": self.statement,
            "instance": self.instance,
            "outcome": self.outcome,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.reason is not None:
            out["reason"] = self.reason
        out["stats"] = dict(sorted(self.stats.items()))
        return out


def passed_report(statement, instance, **stats) -> VerificationReport:
    return VerificationReport(statement, instance, "pass", stats=stats)


def failed_report(statement, instance, witness, **stats) -> VerificationReport:
    return VerificationReport(statement, instance, "fail", witness=witness, stats=stats)


def skipped_report(statement, instance, reason, **stats) -> VerificationReport:
    return VerificationReport(statement, instance, "skipped", reason=reason, stats=stats)
