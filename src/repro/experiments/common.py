"""Shared helpers for the per-figure experiment drivers."""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from ..model.metrics import AttentionResult
from ..runtime import executor as _runtime
from ..workloads.models import (
    MODELS,
    MODELS_BY_NAME,
    ModelConfig,
    SEQUENCE_LENGTHS,
)


def sweep_attention(
    models: Sequence[ModelConfig] = MODELS,
    seq_lens: Sequence[int] = SEQUENCE_LENGTHS,
    *,
    jobs: int = 1,
    cache: object = True,
) -> Dict[Tuple[str, str, int], AttentionResult]:
    """Evaluate every configuration on the grid; keyed by
    ``(config_name, model_name, seq_len)``.

    Runs through the :mod:`repro.api` Session (a typed
    ``ExperimentRequest``): ``jobs`` fans grid points out over
    processes and ``cache`` reuses prior results; both preserve the
    serial path's results and ordering exactly.  Unregistered
    ``ModelConfig`` objects (nothing in-repo) fall back to the runtime
    directly, since requests name models rather than carry them.
    """
    if all(MODELS_BY_NAME.get(m.name) is m for m in models):
        # Imported lazily: the Session dispatches experiment requests
        # back into this package.
        from ..api import ExperimentRequest, Session

        request = ExperimentRequest(
            name="sweep", kind="attention",
            models=tuple(m.name for m in models),
            seq_lens=tuple(seq_lens),
        )
        return Session(jobs=jobs, cache=cache).run(request).payload
    return _runtime.sweep_attention(models, seq_lens, jobs=jobs, cache=cache)


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
