"""Result documents: canonical JSON, text rendering, and a disk cache.

Every command produces one document with a fixed top-level shape::

    {"tool", "version", "command", "seed", "spec", "result", "timing"}

``timing`` is the only volatile block; two runs of the same command on the
same input and seed produce byte-identical canonical JSON once it is
removed.  Documents are cached on disk keyed by a content hash of the
command, the code-file text, all result-affecting parameters, and the
package's own sources, so a changed algorithm never serves an old document.
Each stored document carries a seal, a sha256 over its key and its canonical
JSON; a file whose document does not match its seal for that key is a miss.
A cached document keeps the seconds of the run that computed it.  Bit
supports inside a result are listed by ``instantiate.support_bits``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import tempfile
from importlib import metadata
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "CACHE_ENV_VAR",
    "tool_version",
    "make_document",
    "canonical_json",
    "ReportCache",
    "render_document",
]

CACHE_ENV_VAR = "POLYQEC_CACHE_DIR"
_TOOL = "polyqec"
_ROOT = Path(__file__).resolve().parent


@functools.cache
def tool_version() -> str:
    try:
        return metadata.version(_TOOL)
    except metadata.PackageNotFoundError:  # running from a source tree
        return "0.0.0"


@functools.cache
def _source_digest() -> str:
    """sha256 over the package's ``.py`` sources and ``data/`` files.

    The version string is ``0.0.0`` in every source tree, so the cache keys
    on this digest to drop documents written by any other build of the code.
    """
    files = sorted(_ROOT.glob("*.py")) + sorted(
        p for p in (_ROOT / "data").iterdir() if p.is_file()
    )
    h = hashlib.sha256()
    for path in files:
        data = path.read_bytes()
        h.update(f"{path.relative_to(_ROOT).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def make_document(
    command: str,
    spec_info: Mapping[str, Any] | None,
    result: Mapping[str, Any],
    *,
    seed: int | None = None,
    seconds: float = 0.0,
) -> dict[str, Any]:
    return {
        "tool": _TOOL,
        "version": tool_version(),
        "command": command,
        "seed": seed,
        "spec": dict(spec_info) if spec_info is not None else None,
        "result": dict(result),
        "timing": {"seconds": seconds, "cached": False},
    }


def canonical_json(doc: Mapping[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- disk cache ------------------------------------------------------------


def _seal(key: str, doc: Mapping[str, Any]) -> str:
    """sha256 over a cache key and the canonical JSON of the document stored under it."""
    return hashlib.sha256((key + canonical_json(doc)).encode("utf-8")).hexdigest()


class ReportCache:
    """Content-addressed store of finished documents, each sealed to its key.

    A stored document keeps the seconds its computation took, and a load
    returns them with ``cached: true``.

    The directory is taken from the explicit argument, else the
    ``POLYQEC_CACHE_DIR`` environment variable, else ``~/.cache/polyqec``.
    """

    def __init__(self, directory: str | Path | None = None):
        if directory is None:
            directory = os.environ.get(CACHE_ENV_VAR) or Path.home() / ".cache" / _TOOL
        self.directory = Path(directory)

    def key(self, command: str, spec_text: str | None, params: Mapping[str, Any]) -> str:
        payload = canonical_json(
            {
                "command": command,
                "params": dict(params),
                "sources": _source_digest(),
                "spec_text": spec_text,
                "version": tool_version(),
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> dict[str, Any] | None:
        """The document stored under ``key``, or None on a miss.

        An unreadable or truncated file is a miss, and so is any file whose
        document does not match its seal for this key.
        """
        try:
            doc = json.loads(self._path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.pop("seal", None) != _seal(key, doc):
            return None
        doc["timing"]["cached"] = True
        return doc

    def store(self, key: str, doc: Mapping[str, Any]) -> None:
        """Write through a temporary file, so a reader never sees half a document."""
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{key}.", suffix=".tmp", dir=self.directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(canonical_json({**doc, "seal": _seal(key, doc)}))
            os.replace(tmp, self._path(key))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise


# -- human rendering -------------------------------------------------------


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _render_block(out: list[str], data: Mapping[str, Any], indent: str) -> None:
    width = max((len(k) for k in data), default=0)
    for key, value in data.items():
        if isinstance(value, Mapping):
            out.append(f"{indent}{key}:")
            _render_block(out, value, indent + "  ")
        elif (
            isinstance(value, list)
            and value
            and all(isinstance(v, Mapping) for v in value)
        ):
            out.append(f"{indent}{key}:")
            for item in value:
                _render_block(out, item, indent + "  ")
                out.append("")
            if out[-1] == "":
                out.pop()
        elif (
            isinstance(value, list)
            and value
            and all(isinstance(v, str) for v in value)
            and sum(map(len, value)) > 60
        ):
            out.append(f"{indent}{key}:")
            for item in value:
                out.append(f"{indent}  {item}")
        else:
            out.append(f"{indent}{key.ljust(width)}  {_fmt(value)}")


def render_document(doc: Mapping[str, Any]) -> str:
    """Plain-text table view of the same record the JSON output carries."""
    out: list[str] = []
    spec = doc.get("spec")
    title = f"{doc['tool']} {doc['command']}"
    if spec and spec.get("name"):
        title += f": {spec['name']}"
    out.append(title)
    out.append("=" * len(title))
    if spec:
        out.append(f"source     {spec.get('source', '-')}")
        out.append(f"variables  {' '.join(spec['variables'])}")
        out.append(f"f          {spec['f']}")
        if spec.get("g") is not None:
            out.append(f"g          {spec['g']}")
        if spec.get("boundary"):
            rels = ", ".join(str(tuple(v)) for v in spec["boundary"])
            out.append(f"boundary   {rels}")
        out.append("")
    if doc.get("seed") is not None:
        out.append(f"seed       {doc['seed']}")
    _render_block(out, doc["result"], "")
    cached = " (cached)" if doc["timing"].get("cached") else ""
    out.append("")
    out.append(f"[{doc['timing']['seconds']:.3f}s{cached}]")
    return "\n".join(out) + "\n"
