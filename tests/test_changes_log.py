"""CHANGES.md keeps one short paragraph per change.

A ``PR N`` entry says what changed, gives the ``--shortstat`` line and
names any removed test ids; measurements belong in DESIGN.md's tables.
Entries numbered from :data:`FIRST_CHECKED` on must fit in
:data:`MAX_ENTRY_BYTES`; the earlier ones are left as they were written.
``FOUND:`` / ``MENDED:`` lines are notes for later work, not entries.
"""

import re
from pathlib import Path

CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"
FIRST_CHECKED = 46
MAX_ENTRY_BYTES = 1200

#: an entry line: ``PR N: ...``, ``PR N [type] ...`` or ``**PR N · ...``.
_ENTRY = re.compile(r"^\**PR (\d+)\b")


def oversized_entries(text):
    """(number, bytes) of each checked entry line over the limit."""
    found = []
    for line in text.splitlines():
        match = _ENTRY.match(line)
        if match and int(match.group(1)) >= FIRST_CHECKED:
            size = len(line.encode())
            if size > MAX_ENTRY_BYTES:
                found.append((int(match.group(1)), size))
    return found


def test_entries_fit_in_one_short_paragraph():
    assert oversized_entries(CHANGES.read_text(encoding="utf-8")) == []


def test_the_check_reads_every_entry_style():
    long = "x" * MAX_ENTRY_BYTES
    text = "\n".join([
        f"PR {FIRST_CHECKED}: {long}",
        f"**PR {FIRST_CHECKED + 1} · [simplicity] {long}",
        f"PR {FIRST_CHECKED + 2} [perf_opt] short",
        f"PR {FIRST_CHECKED - 1}: {long}",
        f"FOUND: PR {FIRST_CHECKED} {long}",
    ])
    assert oversized_entries(text) == [
        (FIRST_CHECKED, MAX_ENTRY_BYTES + len(f"PR {FIRST_CHECKED}: ")),
        (FIRST_CHECKED + 1,
         len(f"**PR {FIRST_CHECKED + 1} · [simplicity] {long}".encode())),
    ]
