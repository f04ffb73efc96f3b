"""The per-line .aut reader, the oracle of verify.read_aut and
verify.aut_header.

It splits the text with str.splitlines, strips each line, drops the
blank ones and matches each of the rest on its own: the first against
the header, every other one against a transition line.  Slower than the
one scan in verify and plainly right, so the scan is checked against it
on every spelling the format allows."""
from __future__ import annotations

import re

from lotoskit.semantics import Lts
from lotoskit.verify import _grow

_AUT_HEADER = re.compile(r"des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*\Z")
_AUT_LINE = re.compile(r"\(\s*(\d+)\s*,\s*\"([^\"]*)\"\s*,\s*(\d+)\s*\)\s*\Z")


def _aut_lines(text: str) -> list[str]:
    return [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]


def aut_header(text: str) -> tuple[int, int, int]:
    return _header(_aut_lines(text))


def _header(lines: list[str]) -> tuple[int, int, int]:
    if not lines:
        raise ValueError("empty .aut input")
    head = _AUT_HEADER.match(lines[0])
    if not head:
        raise ValueError(f"bad .aut header: {lines[0]!r}")
    initial, num_trans, num_states = (int(g) for g in head.groups())
    return initial, num_trans, num_states


def read_aut(text: str) -> Lts:
    """read_aut line by line, for every spelling the format allows."""
    lines = _aut_lines(text)
    return _read_aut_body(lines[1:], *_header(lines), [], {})


def _read_aut_body(lines: list[str], initial: int, num_trans: int, num_states: int,
                   out: list[list[tuple[int, int]]], label_ids: dict[str, int]) -> Lts:
    """Adds the transition lines to the rows read so far, checks the
    counts and builds the system.  label_ids numbers 0, 1, ... the labels
    met so far and any more known to come; a new label takes the next
    id."""
    for ln in lines:
        m = _AUT_LINE.match(ln)
        if not m:
            raise ValueError(f"bad .aut transition: {ln!r}")
        src, label, dst = int(m.group(1)), m.group(2), int(m.group(3))
        if not label.strip():
            raise ValueError(f"blank label in .aut transition: {ln!r}")
        if src >= num_states or dst >= num_states:
            raise ValueError(f"state out of range in: {ln!r}")
        lab = label_ids.get(label)
        if lab is None:
            lab = label_ids[label] = len(label_ids)
        if src >= len(out):
            _grow(out, src, num_states)
        out[src].append((lab, dst))
    found = sum(map(len, out))
    if found != num_trans:
        raise ValueError(f"header promises {num_trans} transition(s), found {found}")
    if initial >= num_states and num_states > 0:
        raise ValueError("initial state out of range")
    out.extend([] for _ in range(num_states - len(out)))
    return Lts(out, list(label_ids), initial)
