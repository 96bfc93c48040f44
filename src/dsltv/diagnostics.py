"""Diagnostics shared by the parser, resolver and fragment checks."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    severity: str  # "error" | "warning"
    message: str
    file: str = "<input>"

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.severity}: {self.message}"

