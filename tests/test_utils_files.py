"""Atomic artifact writes.

An interrupted :func:`atomic_write_text` must leave either the old
complete file or the new complete file on disk, never truncated bytes.
"""

import os
from unittest import mock

import pytest

from repro.utils.files import atomic_write_text


def test_atomic_write_creates_parents_and_content(tmp_path):
    target = tmp_path / "deep" / "nested" / "out.json"
    atomic_write_text(target, '{"ok": true}\n')
    assert target.read_text() == '{"ok": true}\n'
    # No temporary litter left behind.
    assert os.listdir(target.parent) == ["out.json"]


def test_kill_mid_write_never_leaves_a_truncated_file(tmp_path):
    """Regression: a crash during the write leaves the old file intact."""
    target = tmp_path / "artifact.json"
    atomic_write_text(target, "old complete contents\n")

    class Killed(BaseException):
        """Simulates SIGKILL-like interruption inside the write."""

    real_replace = os.replace
    with mock.patch("os.replace", side_effect=Killed):
        with pytest.raises(Killed):
            atomic_write_text(target, "new contents that never landed\n")
    # The old artifact is still complete, byte for byte...
    assert target.read_text() == "old complete contents\n"
    # ...and the aborted temp file was cleaned up.
    assert os.listdir(tmp_path) == ["artifact.json"]
    atomic_write_text(target, "second attempt\n")
    assert target.read_text() == "second attempt\n"
    assert os.replace is real_replace
