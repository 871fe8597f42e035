"""The one reader and the one writer behind every CSV file the package reads or writes.

Inputs: features, ratings, arrows, manifest, stats. Outputs: features,
ratings, arrows, and the synthetic corpus's manifest and latents.
"""

from __future__ import annotations

import csv
import math
from typing import Callable, Iterable, Sequence

from .errors import InputError, TableFormatError


def read_csv(path: str, header: list[str], parse_row: Callable[[int, list[str]], None]) -> None:
    """Call parse_row(line, cells) for each data row of the CSV file at path.

    The first row must equal header. Blank lines are skipped and every other
    row must have len(header) cells. An unreadable file raises InputError;
    a wrong header or column count, or bytes that are not UTF-8 CSV,
    TableFormatError. A ValueError from parse_row, such as a bad numeric
    cell, becomes TableFormatError; an InputError keeps its type. Row-level
    errors start with `path:line`.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != header:
                raise TableFormatError(f"{path}: header must be {','.join(header)}")
            for cells in reader:
                if not cells:
                    continue
                where = f"{path}:{reader.line_num}"
                if len(cells) != len(header):
                    raise TableFormatError(
                        f"{where}: wrong column count {len(cells)}, want {len(header)}"
                    )
                try:
                    parse_row(reader.line_num, cells)
                except ValueError as exc:
                    raise TableFormatError(f"{where}: {exc}") from exc
                except InputError as exc:
                    raise type(exc)(f"{where}: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:
        raise TableFormatError(f"{path}: not a UTF-8 CSV file: {exc}") from exc


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write header and then rows to path as UTF-8 CSV, the form read_csv reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def finite(cell: str) -> float:
    """A numeric cell as a float; NaN and infinities raise ValueError."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"numeric cell {cell!r} is not finite")
    return value
