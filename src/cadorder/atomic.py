"""Atomic file writes: a reader sees a file's old bytes or its new ones."""

import json
import os
from pathlib import Path


def write_text(path, text: str) -> None:
    """Write ``text`` beside ``path``, then rename it over; a failure leaves ``path`` as it was."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON with sorted keys and a two-space indent, atomically."""
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
