"""Machine-readable pass/fail records for identity verification sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ReportEntry:
    """One verified identity at one parameter point."""

    identity: str
    params: tuple[tuple[str, str], ...]
    passed: bool
    witness: str | None = None

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": {k: v for k, v in self.params},
            "status": "pass" if self.passed else "fail",
            "witness": self.witness,
        }


def entry(identity: str, params: dict, passed: bool, witness: str | None = None) -> ReportEntry:
    """Build a ReportEntry with a deterministic parameter ordering."""
    items = tuple(sorted((str(k), str(v)) for k, v in params.items()))
    return ReportEntry(identity, items, bool(passed), witness if not passed else None)


@dataclass
class VerificationReport:
    """A flat list of report entries; overall status is their conjunction.

    Entries are appended in deterministic sweep order so that two runs over the
    same grid produce identical reports; merging is concatenation.
    """

    entries: list[ReportEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, identity: str, params: dict, passed: bool, witness: str | None = None) -> None:
        self.entries.append(entry(identity, params, passed, witness))

    def extend(self, other: "VerificationReport") -> "VerificationReport":
        self.entries.extend(other.entries)
        return self

    def failures(self) -> list[ReportEntry]:
        return [e for e in self.entries if not e.passed]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checked": len(self.entries),
            "failed": len(self.failures()),
            "entries": [e.to_dict() for e in self.entries],
        }

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            tag = "pass" if e.passed else "FAIL"
            pt = ", ".join(f"{k}={v}" for k, v in e.params)
            line = f"[{tag}] {e.identity} ({pt})"
            if e.witness:
                line += f" witness: {e.witness}"
            lines.append(line)
        lines.append(f"{len(self.entries)} checks, {len(self.failures())} failures")
        return "\n".join(lines)

    __str__ = summary
