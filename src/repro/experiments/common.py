"""Shared helpers for the per-figure experiment drivers."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from ..api.session import Session
from ..runtime.executor import attention_grid
from ..workloads.models import MODELS, SEQUENCE_LENGTHS, ModelConfig


def evaluate_grid(
    session: Optional[Session],
    models: Sequence[ModelConfig] = MODELS,
    seq_lens: Sequence[int] = SEQUENCE_LENGTHS,
    configs: Optional[Sequence[Any]] = None,
    kind: str = "attention",
    keep_failures: bool = False,
) -> Dict[Tuple[str, str, int], Any]:
    """Evaluate the ``attention`` or ``inference`` grid (see
    :func:`~repro.runtime.executor.attention_grid`) in one pass of
    ``session`` (a default :class:`Session` when None), recorded under
    ``kind``.  The results are keyed by
    ``(config_name, model_name, seq_len)``, in task order.  A point that
    failed under ``on_error="skip"`` raises its ``TaskError``, since the
    figure drivers need every point, unless ``keep_failures`` leaves its
    ``TaskFailure`` in its slot (the sweep's payload)."""
    tasks = attention_grid(models, seq_lens, configs, kind=kind)
    outcome = (session or Session()).evaluate(kind, tasks)
    results = outcome.results if keep_failures else outcome.complete()
    return {
        (task.config.name, task.model.name, task.seq_len): result
        for task, result in zip(tasks, results)
    }


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a fixed-width text table."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
