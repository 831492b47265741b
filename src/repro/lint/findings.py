"""Finding and severity types for :mod:`repro.lint`."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple


class Severity(enum.IntEnum):
    """How bad a finding is.  Ordering is meaningful (ERROR > NOTE)."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is the file as the caller named it (what gets printed);
    ``rel`` is the package-rooted path (``repro/phy/dsss.py``) that rule
    scoping matches on, so findings do not depend on where the checkout
    lives.
    """

    rule: str
    severity: Severity
    path: str
    rel: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple:
        return (self.rel, self.line, self.col, self.rule)

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "path": self.path,
            "rel": self.rel,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"[{self.severity}] {self.message}")
