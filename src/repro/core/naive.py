"""Naive partitioning — the broken baseline (§I, §V motivation).

"'Naively' bisecting an image and considering the two equal halves
separately will ... not yield the same results as processing the entire
image at once.  Even in the absence of global properties, artifacts
that intersect with a partition boundary may be found twice ..., be
poorly identified ..., or not be found at all."

We implement it exactly so the benchmark suite can *show* those
anomalies: split into a plain grid with **no overlap**, give each tile
the area-scaled share of the whole-image prior (the incorrect uniform-
density assumption §VIII criticises), run independent chains, and
concatenate without any reconciliation.

The orchestration lives in the unified engine (:mod:`repro.engine`,
strategy ``"naive"``); this module keeps the strategy's result type —
``engine.run(request).raw``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.core.subimage import SubImageResult

__all__ = ["NaiveResult"]


@dataclass
class NaiveResult:
    """Outcome of naive partitioning (no reconciliation performed)."""

    tiles: List[Rect]
    sub_results: List[SubImageResult]
    circles: List[Circle] = field(default_factory=list)

    def cut_lines(self):
        """The interior grid lines, for boundary-anomaly accounting:
        list of ('v'|'h', coordinate) pairs."""
        lines = []
        xs = sorted({t.x0 for t in self.tiles} | {t.x1 for t in self.tiles})
        ys = sorted({t.y0 for t in self.tiles} | {t.y1 for t in self.tiles})
        for x in xs[1:-1]:
            lines.append(("v", x))
        for y in ys[1:-1]:
            lines.append(("h", y))
        return lines
