"""Result rows as CSV, JSON, or an aligned text table.

Every result row type (binding, scenario, grid, serving, cluster)
declares its columns once, as a ``COLUMNS`` tuple of :class:`Group`
runs, and :func:`emit_rows` renders any batch of one type.  An optional
group joins the header only when some row of the batch models it, so a
batch without DRAM, buffer, QoS or link modeling keeps the narrow
historical header byte for byte.  In CSV and table output a cell reads
``-`` when its value is None or its group is blanked on that row; JSON
keeps the raw values.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

#: Output formats of :func:`emit_rows`.
FORMATS: Tuple[str, ...] = ("table", "csv", "json")


@dataclass(frozen=True)
class Group:
    """A run of columns of one row type.

    ``blank`` names the field whose None on a row means the row does not
    model this group: the group joins the header when any row sets it,
    and renders ``-`` on every row that does not.  ``when`` is the
    header condition of a group without such a field; a group with
    neither always shows.  ``via`` reads the columns from a nested row
    (a grid cell's ``sim``), and ``aliases`` maps a column to the
    attribute holding its value.
    """

    names: Tuple[str, ...]
    blank: Optional[str] = None
    when: Optional[Callable[[Any], bool]] = None
    via: Optional[str] = None
    aliases: Dict[str, str] = field(default_factory=dict)

    def source(self, row: Any) -> Any:
        return row if self.via is None else getattr(row, self.via)

    def shown(self, rows: List[Any]) -> bool:
        """Whether this group is part of the header of ``rows``."""
        if self.blank is not None:
            return any(getattr(self.source(r), self.blank) is not None for r in rows)
        return self.when is None or any(self.when(self.source(r)) for r in rows)

    def values(self, row: Any, text: bool) -> Tuple:
        """The group's cells on ``row``: raw, or as text cells."""
        source = self.source(row)
        if text and self.blank is not None and getattr(source, self.blank) is None:
            return ("-",) * len(self.names)
        values = tuple(getattr(source, self.aliases.get(n, n)) for n in self.names)
        if text:
            return tuple("-" if value is None else value for value in values)
        return values


def emit_rows(results: Iterable[Any], fmt: str) -> str:
    """Render result rows of one type (a sequence, or a mapping whose
    values are the rows) as ``"csv"``, ``"json"`` or ``"table"``."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; have {FORMATS}")
    rows = list(results.values() if isinstance(results, Mapping) else results)
    groups = [g for g in type(rows[0]).COLUMNS if g.shown(rows)] if rows else []
    names = tuple(name for g in groups for name in g.names)
    cells = [sum((g.values(row, fmt != "json") for g in groups), ()) for row in rows]
    if fmt == "json":
        return json.dumps([dict(zip(names, row)) for row in cells], indent=2)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(cells)
        return buffer.getvalue()
    text = [names] + [
        tuple(f"{v:.3f}" if isinstance(v, float) else str(v) for v in row) for row in cells
    ]
    widths = [max(len(row[i]) for row in text) for i in range(len(names))]
    return "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths)) for row in text
    )
