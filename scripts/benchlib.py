"""Shared helpers for the bench and drill scripts in this directory.

Every script stamps its records with the current git revision and appends
them to a ``BENCH_*.json`` history file (a JSON array, two-space indent,
trailing newline).  Both steps live here once; the scripts import this
module by name, which works because Python puts a script's own directory
on ``sys.path``.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def git_revision() -> str:
    """Short hash of ``HEAD``, or ``"unknown"`` outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to the JSON array at ``path`` (created if missing)."""
    history = json.loads(path.read_text()) if path.exists() else []
    if not isinstance(history, list):
        raise SystemExit(f"{path} does not hold a JSON array")
    history.append(record)
    path.write_text(json.dumps(history, indent=2) + "\n")
