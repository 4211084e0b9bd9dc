"""Result containers and plain-text table rendering for the bench harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ExperimentResult", "format_table"]


@dataclass
class ExperimentResult:
    """Rows regenerated for one of the paper's tables or figures."""

    exp_id: str  # e.g. "fig6", "table1"
    title: str
    columns: list[str]
    rows: list[dict[str, Any]]
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Human-readable report block."""
        lines = [f"== {self.exp_id}: {self.title} =="]
        lines.append(format_table(self.columns, self.rows))
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        """JSON-serializable form (plotting / archival)."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(r) for r in self.rows],
            "notes": list(self.notes),
        }

    def to_csv(self) -> str:
        """CSV text with the declared column order."""
        import csv
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=self.columns,
                                extrasaction="ignore")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(columns: list[str], rows: list[dict[str, Any]]) -> str:
    """Fixed-width text table of ``rows`` projected onto ``columns``."""
    cells = [[_fmt(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
        for i, c in enumerate(columns)
    ]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    sep = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in cells
    ]
    return "\n".join([header, sep, *body])
