"""Tiny shared shape for pass/fail verification results."""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    """One named verification with the cell it was exercised at."""

    name: str
    where: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f": {self.detail}" if (self.detail and not self.ok) else ""
        return f"{status}  {self.name}  [{self.where}]{suffix}"
