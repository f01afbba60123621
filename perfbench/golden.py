"""The output check: circle digests against golden ones, and F1.

The golden digest of a job spec is the sha256 of the circles a direct
``repro.engine.run`` of the same request returns, in result order.
They are kept in ``perfbench/golden/<workload>.json`` and cover every
spec of every workload pool.  A measured run only reads them: a spec
without a golden digest fails its check, and only ``--prime-golden``
computes and writes digests.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def circles_digest(circles: Sequence[Sequence[float]]) -> str:
    blob = json.dumps([[float(v) for v in c] for c in circles],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def direct_digest(spec: Dict[str, Any]) -> str:
    """Digest of a direct engine run of the request *spec* describes."""
    from repro.engine import run
    from repro.service.protocol import request_from_wire

    result = run(request_from_wire(spec))
    return circles_digest([(c.x, c.y, c.r) for c in result.circles])


class GoldenStore:
    def __init__(self, workload: str) -> None:
        self.path = GOLDEN_DIR / f"{workload}.json"
        self.entries: Dict[str, str] = {}
        if self.path.exists():
            self.entries = json.loads(self.path.read_text())["digests"]

    def get(self, key: str) -> Optional[str]:
        return self.entries.get(key)

    def prime(self, keys: List[str], specs: List[Dict[str, Any]]) -> int:
        """Compute and write the digests of the *specs* the store lacks;
        return how many were computed."""
        missing = [(k, s) for k, s in zip(keys, specs) if k not in self.entries]
        for key, spec in missing:
            self.entries[key] = direct_digest(spec)
        if not missing:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        doc = {"digests": dict(sorted(self.entries.items()))}
        tmp.write_text(json.dumps(doc, indent=1) + "\n")
        os.replace(tmp, self.path)
        return len(missing)


def f1_score(found: Sequence[Sequence[float]],
             truth: Sequence[Tuple[float, float, float]]) -> float:
    from repro.core.evaluation import evaluate_model
    from repro.geometry.circle import Circle

    return evaluate_model([Circle(*c) for c in found],
                          [Circle(*c) for c in truth]).f1


def check(records: List[Any], keys: List[str], store: GoldenStore) -> List[str]:
    """Mark each completed record verified when its digest matches the
    golden one; return one line per mismatch or missing golden digest."""
    mismatches = []
    for record in records:
        if not record.completed:
            continue
        key = keys[record.pool_index]
        got = circles_digest(record.result["circles"])
        want = store.get(key)
        record.verified = got == want
        if want is None:
            mismatches.append(f"job {record.index} (spec {key}): no golden "
                              f"digest; run --prime-golden")
        elif not record.verified:
            mismatches.append(f"job {record.index} (spec {key}): digest "
                              f"{got[:12]} != golden {want[:12]}")
    return mismatches
