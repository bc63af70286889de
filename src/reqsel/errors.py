"""Exception hierarchy shared by all reqsel modules, and the two rules every
CSV loader reads its input by.

The line rule: blank rows are skipped; a row whose first cell starts with
`#` is a comment (the CLI's provenance stamp, a VDG's `# nodes` universe);
every other row is data, its cells stripped of surrounding whitespace. The
repeated-id rule: an id listed twice where ids must be distinct is an
`InputFormatError` naming the id and the line it repeats on.
"""

from __future__ import annotations

import csv
from collections import Counter
from typing import IO, Iterable, Sequence


class ReqselError(Exception):
    """Base class for every error raised by this package."""


class InputFormatError(ReqselError):
    """Malformed input data: CSV/JSON schema violations, ragged rows,
    non-binary cells, unparseable numbers. Messages carry the offending
    line/column where available."""


class ValidationError(ReqselError):
    """A documented precondition or domain invariant was violated."""


class DegenerateMarginalError(ValidationError):
    """A requirement is wanted by every user or by none, so its latent
    Gaussian threshold is infinite and the row cannot be fitted."""


class InfeasibleCovarianceError(ValidationError):
    """A target joint probability falls outside the Frechet bounds, so no
    latent correlation can reproduce it."""


def read_rows(source: IO[str] | Iterable[str]) -> tuple[list, list]:
    """Split CSV input by the line rule into (data rows, comment rows), each
    row a 1-based line number with its stripped cells. Text the csv module
    cannot read is an InputFormatError naming the line it stopped on."""
    data: list[tuple[int, list[str]]] = []
    comments: list[tuple[int, list[str]]] = []
    reader = csv.reader(source)
    try:
        for lineno, record in enumerate(reader, start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            cells = [cell.strip() for cell in record]
            (comments if cells[0].startswith("#") else data).append((lineno, cells))
    except csv.Error as exc:
        raise InputFormatError(f"line {reader.line_num}: {exc}") from exc
    return data, comments


def check_distinct(names: Sequence[str], lines: Sequence[int], where: str) -> None:
    """Raise on the first-listed name that repeats, with the line of its
    second occurrence."""
    dup = next((name for name, k in Counter(names).items() if k > 1), None)
    if dup is not None:
        lineno = [line for name, line in zip(names, lines) if name == dup][1]
        raise InputFormatError(f"line {lineno}: requirement id {dup!r} repeats in the {where}")
