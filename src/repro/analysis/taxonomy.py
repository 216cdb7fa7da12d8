"""The attention-algorithm taxonomy of Table I (Section IV-E).

Classifies attention cascades by the number of passes they perform over an
M fiber and records the paper's mapping from prior work to categories.
The classification is *computed* from the cascade definitions via
:func:`repro.analysis.passes.count_passes`, not hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ..cascades.attention import attention_1pass, attention_2pass, attention_3pass
from ..einsum import Cascade
from .passes import RankFamily, count_passes, family

#: Prior work classified by Table I of the paper.
TABLE_I: Mapping[str, Tuple[str, ...]] = {
    "3-pass": ("PyTorch", "TensorFlow", "FLAT", "E.T."),
    "2-pass": ("TileFlow", "Choi et al."),
    "1-pass": ("FlashAttention", "FlashAttention-2", "Rabe and Staats"),
}


@dataclass(frozen=True)
class TaxonomyEntry:
    """One classified attention cascade."""

    cascade_name: str
    passes: int
    category: str
    exemplars: Tuple[str, ...]


def attention_rank_family(cascade: Cascade) -> RankFamily:
    """The M-rank family of an attention cascade (partitioned or not)."""
    if "m1" in cascade.rank_shapes:
        return family("m1", "m0")
    return family("m")


def classify(cascade: Cascade) -> str:
    """Classify an attention cascade as ``"N-pass"``."""
    analysis = count_passes(cascade, attention_rank_family(cascade))
    return f"{analysis.num_passes}-pass"


def build_taxonomy() -> Dict[str, TaxonomyEntry]:
    """Reproduce Table I: classify each implemented attention cascade.

    The 3-pass cascade represents PyTorch/TensorFlow/FLAT/E.T.; the 2-pass
    cascade TileFlow and Choi et al.; the 1-pass cascade (FlashAttention-2's)
    the FlashAttention family and Rabe & Staats.
    """
    table: Dict[str, TaxonomyEntry] = {}
    for cascade in (attention_3pass(), attention_2pass(), attention_1pass()):
        category = classify(cascade)
        table[cascade.name] = TaxonomyEntry(
            cascade_name=cascade.name,
            passes=int(category.split("-")[0]),
            category=category,
            exemplars=TABLE_I.get(category, ()),
        )
    return table
