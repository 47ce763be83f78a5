"""The ``metadata`` block every ``BENCH_*.json`` run carries."""

from __future__ import annotations

import platform
import subprocess
import time
from pathlib import Path

from repro.exec import cpu_count

REPO = Path(__file__).resolve().parent.parent


def git_rev() -> str:
    """The checkout's commit (``-dirty`` with uncommitted changes), or
    ``"unknown"`` outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=REPO, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_metadata() -> dict:
    """Timestamp, git rev, Python version and usable CPU count of a run."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "cpu_count": cpu_count(),
    }
