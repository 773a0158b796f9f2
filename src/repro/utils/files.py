"""Atomic file writes for run artifacts.

:func:`atomic_write_text` writes to a temporary file in the destination
directory and ``os.replace``\\ s it into place, so a kill at any instant
leaves either the previous file or the complete new one -- never a
truncated half-write.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``).

    The temporary file lives in the destination directory so the
    replace is a same-filesystem rename; it is flushed and fsynced
    before the rename so a crash cannot publish an empty file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
