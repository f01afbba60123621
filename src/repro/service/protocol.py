"""JSON-lines wire protocol shared by the service server and client.

Every message is one JSON object per ``\\n``-terminated line, UTF-8.

Client → server ops::

    {"op": "submit", "job": {...job spec...}, "priority": 0, "client": "id"}
    {"op": "status", "job_id": "job-..."}
    {"op": "cancel", "job_id": "job-..."}
    {"op": "stream", "job_id": "job-..."}   # server streams event lines
    {"op": "stats"}
    {"op": "metrics", "spans": false}   # obs exposition (JSON families)
    {"op": "trace", "job_id": "job-..."}   # or {"op": "trace", "trace": "<id>"}
    {"op": "ping"}

``client`` is optional — a self-declared id for per-client quota
accounting (servers fall back to the peer address).  A cluster router
(:mod:`repro.cluster.router`) speaks this same protocol and adds one
debug op, ``{"op": "route", "job": {...}}``, answering where a spec
*would* be placed.

``trace`` returns the buffered spans for one trace — addressed by a
``job_id`` the target knows, or by raw ``trace`` key.  Against a plain
service it answers that node's local buffer; against a router it fans
out to the backends that touched the job and returns the merged,
``node``-labeled, clock-skew-adjusted span list (see
:meth:`repro.cluster.router.ClusterRouter.trace_async`).

A *job spec* names the image one of three ways plus the engine knobs:

``scene``
    ``{"size": 64, "circles": 4, "seed": 0, "threshold": 0.4}`` — a
    synthetic workload generated server-side, mirroring
    ``repro detect`` exactly (so a client can reproduce the request
    locally and check bit-parity).
``image_path``
    A ``*.pgm`` path readable by the *server*.
``pixels``
    ``{"shape": [h, w], "data": "<base64 float64 C-order>"}`` — raw
    pixels inline, for clients whose images exist nowhere the server
    can read.

plus ``strategy``, ``iterations``, ``seed``, ``record_every``,
``options``, ``executor`` (string choices only), ``n_workers``,
``threshold``/``radius_mean`` (model derivation for path/pixel images).

Server → client: every reply carries ``ok``; streamed event lines carry
``event`` (``planned`` / ``partition`` / ``state`` / ``result`` /
``error`` / ``cancelled``).  The terminal events are ``result``,
``error`` and ``cancelled``.  Detection results reuse the cache's JSON
schema (:func:`repro.engine.cache.result_to_json`) so a streamed result
and a cached one are byte-comparable.
"""

from __future__ import annotations

import base64
import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.engine.cache import result_to_json
from repro.engine.schema import (
    DetectionEvent,
    DetectionRequest,
    PartitionReport,
    PartitionResultEvent,
    ResultEvent,
    TilePlannedEvent,
    request_key,
)
from repro.errors import (
    DeadlineExceededError,
    JobNotFoundError,
    QueueFullError,
    QuotaExceededError,
    ServiceError,
)
from repro.imaging.image import Image

__all__ = [
    "MAX_LINE_BYTES",
    "TERMINAL_EVENTS",
    "encode_line",
    "decode_line",
    "error_reply",
    "request_from_wire",
    "SpecKeyMemo",
    "event_to_wire",
    "scene_job",
    "pgm_job",
    "pixels_job",
]

#: StreamReader line limit — inline float64 pixel payloads are large
#: (a 1024² image is ~11 MB of base64).
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Event names after which a stream ends.
TERMINAL_EVENTS = frozenset({"result", "error", "cancelled"})


def encode_line(obj: Dict[str, Any]) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServiceError(f"malformed protocol line: {exc}") from None
    if not isinstance(obj, dict):
        raise ServiceError(f"protocol messages are JSON objects, got {type(obj).__name__}")
    return obj


def error_reply(exc: ServiceError) -> Dict[str, Any]:
    """The one exception → ``ok: false`` reply mapping — the wire-error
    contract both the service's and the cluster router's protocol loops
    speak (a handler may map its own subclasses *before* falling back
    here, as the router does for its no-backends case)."""
    if isinstance(exc, QuotaExceededError):
        return {"ok": False, "error": "quota-exceeded",
                "message": str(exc), "retry_after": exc.retry_after}
    if isinstance(exc, QueueFullError):
        return {"ok": False, "error": "queue-full",
                "message": str(exc), "retry_after": exc.retry_after}
    if isinstance(exc, JobNotFoundError):
        return {"ok": False, "error": "unknown-job", "message": str(exc)}
    if isinstance(exc, DeadlineExceededError):
        return {"ok": False, "error": "deadline-exceeded", "message": str(exc)}
    return {"ok": False, "error": "bad-request", "message": str(exc)}


# -- job spec → DetectionRequest ----------------------------------------------

def _require_int(spec: Dict[str, Any], key: str, default=None) -> int:
    value = spec.get(key, default)
    if value is None:
        raise ServiceError(f"job spec is missing required field {key!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"job field {key!r} must be an integer, got {value!r}")
    return value


def request_from_wire(spec: Dict[str, Any]) -> DetectionRequest:
    """Build the engine request a job spec describes.

    Raises :class:`ServiceError` for anything malformed — the server
    turns that into an ``ok: false`` reply rather than a dead worker.
    """
    if not isinstance(spec, dict):
        raise ServiceError(f"job spec must be an object, got {type(spec).__name__}")
    sources = [k for k in ("scene", "image_path", "pixels") if spec.get(k) is not None]
    if len(sources) != 1:
        raise ServiceError(
            "job spec needs exactly one image source of 'scene', "
            f"'image_path', 'pixels'; got {sources or 'none'}"
        )
    strategy = spec.get("strategy", "intelligent")
    iterations = _require_int(spec, "iterations")
    seed = spec.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ServiceError(f"job field 'seed' must be an integer, got {seed!r}")
    record_every = _require_int(spec, "record_every", 50)
    options = spec.get("options") or {}
    if not isinstance(options, dict):
        raise ServiceError("job field 'options' must be an object")
    executor = spec.get("executor", "serial")
    if executor is not None and not isinstance(executor, str):
        raise ServiceError("job field 'executor' must be a string choice")
    n_workers = spec.get("n_workers")
    threshold = float(spec.get("threshold", 0.4))
    radius_mean = float(spec.get("radius_mean", 8.0))

    source = sources[0]
    try:
        if source == "scene":
            from repro.bench.workloads import synthetic_workload

            scene = spec["scene"]
            if not isinstance(scene, dict):
                raise ServiceError("job field 'scene' must be an object")
            workload = synthetic_workload(
                size=_require_int(scene, "size", 128),
                n_circles=_require_int(scene, "circles", 10),
                mean_radius=float(scene.get("mean_radius", 8.0)),
                threshold=float(scene.get("threshold", threshold)),
                seed=scene.get("seed", seed),
            )
            return workload.request(
                strategy,
                iterations=iterations,
                executor=executor,
                n_workers=n_workers,
                seed=seed,
                record_every=record_every,
                options=options or None,
            )
        if source == "image_path":
            from repro.imaging.pgm import read_pgm

            image = read_pgm(spec["image_path"])
        else:  # pixels
            image = _decode_pixels(spec["pixels"])
        from repro.bench.workloads import request_for_image

        return request_for_image(
            image,
            strategy,
            iterations=iterations,
            threshold=threshold,
            radius_mean=radius_mean,
            executor=executor,
            n_workers=n_workers,
            seed=seed,
            record_every=record_every,
            options=options or None,
        )
    except ServiceError:
        raise
    except Exception as exc:  # bad paths, bad model params, unknown options...
        raise ServiceError(f"invalid job spec: {exc}") from exc


class SpecKeyMemo:
    """Spec fingerprint → :func:`~repro.engine.schema.request_key`, so a
    repeated spec is keyed without decoding its pixels again.

    The fingerprint is sha256 over the canonical JSON of every field
    but the inline pixel ``data`` string, then that string itself — a
    hash pass over the payload (~1 ms/MB on a 2-vCPU VM) instead of a
    base64 decode, threshold scan and image digest (~6.5 ms/MB there).
    Equal fingerprints mean equal specs, so the fingerprint is finer
    than the key.

    Only specs whose image the spec itself determines are memoised:
    ``pixels`` specs and ``scene`` specs with an integer scene seed.
    ``image_path`` specs never are (the file may change under the same
    path), nor are uncacheable specs (key ``None``).  The memo holds
    keys only, never images, in an LRU of :attr:`CAPACITY` entries;
    a lock makes it safe to share between a parse thread and the loop.
    """

    #: Entries kept (two 64-char hex strings each).
    CAPACITY = 1024

    def __init__(self) -> None:
        self._keys: "OrderedDict[str, str]" = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def fingerprint(spec: Any) -> Optional[str]:
        """The spec's fingerprint, or ``None`` when it must not be
        memoised (or is too malformed to fingerprint — the full parse
        then reports why)."""
        if not isinstance(spec, dict) or spec.get("image_path") is not None:
            return None
        data = b""
        pixels = spec.get("pixels")
        scene = spec.get("scene")
        if pixels is not None:
            if not isinstance(pixels, dict) or not isinstance(pixels.get("data"), str):
                return None
            data = pixels["data"].encode("utf-8")
            spec = {**spec, "pixels": {**pixels, "data": None}}
        elif isinstance(scene, dict):
            scene_seed = scene.get("seed", spec.get("seed"))
            if isinstance(scene_seed, bool) or not isinstance(scene_seed, int):
                return None  # an unseeded scene is a fresh image per parse
        else:
            return None
        try:
            canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        except (TypeError, ValueError):
            return None
        digest = hashlib.sha256(canonical.encode("utf-8"))
        digest.update(b"\0")  # canonical JSON never holds a NUL byte
        digest.update(data)
        return digest.hexdigest()

    def parse(
        self, spec: Any, reuse: bool = True
    ) -> Tuple[Optional[DetectionRequest], Optional[str]]:
        """Spec → ``(request, key)``, remembering the key.

        With *reuse*, a remembered spec returns ``(None, key)`` without
        being decoded.  Otherwise (and for every spec the memo does not
        know) this is :func:`request_from_wire` plus ``request_key``,
        raising :class:`ServiceError` for a malformed spec.
        """
        fingerprint = self.fingerprint(spec)
        key = self.get(fingerprint) if reuse else None
        if key is not None:
            return None, key
        request = request_from_wire(spec)
        key = request_key(request)
        self.put(fingerprint, key)
        return request, key

    def get(self, fingerprint: Optional[str]) -> Optional[str]:
        if fingerprint is None:
            return None
        with self._lock:
            key = self._keys.get(fingerprint)
            if key is not None:
                self._keys.move_to_end(fingerprint)
            return key

    def put(self, fingerprint: Optional[str], key: Optional[str]) -> None:
        if fingerprint is None or key is None:
            return
        with self._lock:
            self._keys[fingerprint] = key
            self._keys.move_to_end(fingerprint)
            while len(self._keys) > self.CAPACITY:
                self._keys.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)


def _decode_pixels(payload: Dict[str, Any]) -> Image:
    if not isinstance(payload, dict) or "shape" not in payload or "data" not in payload:
        raise ServiceError("job field 'pixels' needs 'shape' and 'data'")
    shape = payload["shape"]
    if not (isinstance(shape, (list, tuple)) and len(shape) == 2):
        raise ServiceError(f"pixels shape must be [height, width], got {shape!r}")
    try:
        raw = base64.b64decode(payload["data"], validate=True)
        arr = np.frombuffer(raw, dtype=np.float64).reshape(int(shape[0]), int(shape[1]))
    except (ValueError, TypeError) as exc:
        raise ServiceError(f"undecodable pixel payload: {exc}") from None
    return Image(arr)


def _encode_pixels(image: Image) -> Dict[str, Any]:
    return {
        "shape": [image.height, image.width],
        "data": base64.b64encode(np.ascontiguousarray(image.pixels).tobytes()).decode("ascii"),
    }


# -- job spec builders (client-side conveniences) ------------------------------

def scene_job(
    size: int,
    circles: int,
    strategy: str = "intelligent",
    iterations: int = 2000,
    seed: Optional[int] = 0,
    threshold: float = 0.4,
    **extra: Any,
) -> Dict[str, Any]:
    """A submit payload for a server-generated synthetic scene."""
    job = {
        "scene": {"size": size, "circles": circles, "seed": seed, "threshold": threshold},
        "strategy": strategy,
        "iterations": iterations,
        "seed": seed,
    }
    job.update(extra)
    return job


def pgm_job(path: str, strategy: str = "intelligent", iterations: int = 2000,
            seed: Optional[int] = 0, **extra: Any) -> Dict[str, Any]:
    """A submit payload naming a PGM file the server can read."""
    job = {"image_path": str(path), "strategy": strategy,
           "iterations": iterations, "seed": seed}
    job.update(extra)
    return job


def pixels_job(image: Image, strategy: str = "intelligent", iterations: int = 2000,
               seed: Optional[int] = 0, **extra: Any) -> Dict[str, Any]:
    """A submit payload carrying the image inline (base64 float64)."""
    job = {"pixels": _encode_pixels(image), "strategy": strategy,
           "iterations": iterations, "seed": seed}
    job.update(extra)
    return job


# -- engine events → wire ------------------------------------------------------

def _report_wire(report: PartitionReport) -> Dict[str, Any]:
    return {
        "rect": [report.rect.x0, report.rect.y0, report.rect.x1, report.rect.y1],
        "expected_count": report.expected_count,
        "n_found": report.n_found,
        "iterations": report.iterations,
        "elapsed_seconds": report.elapsed_seconds,
    }


def event_to_wire(event: DetectionEvent, cached: bool = False) -> Dict[str, Any]:
    """One engine event as its wire document."""
    if isinstance(event, TilePlannedEvent):
        return {
            "event": "planned",
            "index": event.index,
            "rect": [event.rect.x0, event.rect.y0, event.rect.x1, event.rect.y1],
            "expected_count": event.expected_count,
        }
    if isinstance(event, PartitionResultEvent):
        return {
            "event": "partition",
            "index": event.index,
            "n_tasks": event.n_tasks,
            "report": _report_wire(event.report),
            "circles": [[c.x, c.y, c.r] for c in event.circles],
        }
    if isinstance(event, ResultEvent):
        return {
            "event": "result",
            "cached": cached,
            "result": result_to_json(event.result),
        }
    raise ServiceError(f"unknown engine event {type(event).__name__}")
