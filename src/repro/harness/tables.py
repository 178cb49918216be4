"""Minimal ascii table rendering for the experiment harnesses."""

from __future__ import annotations

from typing import Sequence


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str = ""
) -> str:
    """Fixed-width ascii table, markdown-ish, right-padded."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]

    def line(row: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"

    sep = "|-" + "-|-".join("-" * w for w in widths) + "-|"
    out = []
    if title:
        out.append(title)
    out.append(line(cells[0]))
    out.append(sep)
    out += [line(r) for r in cells[1:]]
    return "\n".join(out)
