"""Output checks: a wrong answer counts as a failed op.

Encode ops must exit 0, announce ``wrote PATH: V vars, C clauses``, and
write DIMACS whose ``p cnf V C`` header matches both that line and the
clause lines, with every |literal| <= V.  Repeated ops on one input must
write byte-identical files.  Fit ops must report status ``fitted``, the
known minimum size, and a concept that, parsed and evaluated independently,
accepts every positive and rejects every negative.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from alcfit.concepts import evaluate, parse_concept, size
from alcfit.data import Sample


class CheckFailed(Exception):
    """The op ran but its output is wrong."""


_WROTE = re.compile(r"wrote (.+): (\d+) vars, (\d+) clauses\s*\Z")


def wrote_line(rc: int, stdout: str, path: Path) -> tuple[int, int]:
    """(V, C) from an encode op's announcement."""
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    match = _WROTE.search(stdout)
    if match is None or match.group(1) != str(path):
        raise CheckFailed(f"no 'wrote {path}' line in output: {stdout!r}")
    return int(match.group(2)), int(match.group(3))


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def dimacs_shape(path: Path) -> tuple[int, int]:
    """Validate a DIMACS file in 1 MiB slices (no whole-file copy, so the
    check does not raise the process's peak memory); return its (V, C)."""
    with open(path, "rb") as fh:
        line = fh.readline()
        while line.startswith(b"c"):
            line = fh.readline()
        parts = line.split()
        if (len(parts) != 4 or parts[:2] != [b"p", b"cnf"]
                or not parts[2].isdigit() or not parts[3].isdigit()):
            raise CheckFailed(f"bad header line {line[:60]!r}")
        top, announced = int(parts[2]), int(parts[3])
        clauses = 0
        rest = b""
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            buf = rest + chunk
            cut = buf.rfind(b"\n") + 1
            body, rest = buf[:cut], buf[cut:]
            lines = body.count(b"\n")
            # every line ends in " 0": no empty clause, none unterminated
            if body.count(b" 0\n") != lines:
                raise CheckFailed(f"a clause after clause {clauses} is empty "
                                  "or lacks its 0 terminator")
            if b" 0 " in body or b"\n0 " in body or body.startswith(b"0 "):
                raise CheckFailed(f"a 0 inside a clause after clause "
                                  f"{clauses}")
            try:
                biggest = max(map(abs, map(int, body.split())), default=0)
            except ValueError as exc:
                raise CheckFailed(f"non-integer token: {exc}") from None
            if biggest > top:
                raise CheckFailed(f"literal {biggest} exceeds {top} variables")
            clauses += lines
    if rest:
        raise CheckFailed(f"unterminated last line after {clauses} clauses: "
                          "file truncated")
    if clauses != announced:
        raise CheckFailed(f"header announces {announced} clauses, file has "
                          f"{clauses}")
    return top, announced


def check_fit(rc: int, report_path: Path, sample: Sample,
              minimum: int) -> None:
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if report["status"] != "fitted":
        raise CheckFailed(f"status {report['status']!r}")
    if report["size"] != minimum:
        raise CheckFailed(f"size {report['size']}, minimum is {minimum}")
    concept = parse_concept(report["concept"])
    if size(concept) != minimum:
        raise CheckFailed(f"concept {report['concept']!r} has size "
                          f"{size(concept)}, report says {report['size']}")
    ext = evaluate(concept, sample.interp)
    missed = [a for a in sample.positives if a not in ext]
    wrong = [b for b in sample.negatives if b in ext]
    if missed or wrong:
        raise CheckFailed(f"concept {report['concept']!r} misses positives "
                          f"{missed} and accepts negatives {wrong}")
