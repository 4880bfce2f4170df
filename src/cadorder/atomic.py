"""Atomic file writes: a reader sees a file's old bytes or its new ones."""

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
