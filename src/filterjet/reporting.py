"""CSV and summary emission with reproducible formatting."""
from __future__ import annotations

from dataclasses import dataclass


def format_value(value) -> str:
    """Full-precision decimal text: 17 significant digits for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def csv_text(header, rows) -> str:
    lines = [",".join(header)] + [",".join(format_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Check:
    """One summary criterion: a label, a printable statement, a verdict."""

    name: str
    statement: str
    passed: bool


def summarize(checks) -> tuple[bool, str]:
    """(all passed, the summary text): one PASS/FAIL line per check, then the overall verdict."""
    ok = all(c.passed for c in checks)
    lines = [f"{c.name}: {c.statement} -> {'PASS' if c.passed else 'FAIL'}" for c in checks]
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    return ok, "\n".join(lines) + "\n"
