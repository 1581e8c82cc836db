"""Instance file format: a directory holding three CSV files.

households.csv: id, ride_hail_cost, group_ids   (group ids ';'-separated,
                ride_hail_cost empty when undefined)
programs.csv:   id, cost, kind, covers          (household ids ';'-separated)
meta.csv:       budget                          (single data row)

Files are UTF-8. The model rejects an empty id and one containing ';', so
every id it accepts reads back unchanged, however long a field grows.

Column names are fixed; readers reject files whose header does not match
exactly, which doubles as the format version check, and rows whose field
count differs from the header's. The protected groups are the ids the
group_ids column lists.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, TypeVar

from .model import ID_SEPARATOR, Household, Instance, Program, ProgramKind

HOUSEHOLD_COLUMNS = ["id", "ride_hail_cost", "group_ids"]
PROGRAM_COLUMNS = ["id", "cost", "kind", "covers"]
META_COLUMNS = ["budget"]

T = TypeVar("T")

# The csv module's default field limit, 131,072 characters, is below the
# covers field of a program covering about 7,000 households; reading lifts it
# to the largest value a 32-bit C long holds.
FIELD_SIZE_LIMIT = 2**31 - 1


def read_rows(path: Path, columns: list[str], convert: Callable[[dict[str, str]], T]) -> list[T]:
    """`convert` of each data row of the CSV file at `path`, the row keyed by
    `columns`, which must be its header exactly; blank lines are skipped.
    Fields of any length are read (the csv module's limit is restored
    afterwards). A malformed or non-UTF-8 file raises ValueError naming it,
    and a ValueError from `convert` is raised again naming the file and the
    row's line."""
    limit = csv.field_size_limit(FIELD_SIZE_LIMIT)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != columns:
                raise ValueError(f"{path}: expected header {columns}, found {header}")
            rows = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(columns):
                    raise ValueError(
                        f"{path}: line {reader.line_num} has {len(row)} fields,"
                        f" expected {len(columns)}"
                    )
                try:
                    rows.append(convert(dict(zip(columns, row))))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            return rows
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    finally:
        csv.field_size_limit(limit)


def _split_ids(field: str) -> frozenset[str]:
    return frozenset(v for v in field.split(ID_SEPARATOR) if v)


def _household(row: dict[str, str]) -> Household:
    raw_cost = row["ride_hail_cost"].strip()
    return Household(
        id=row["id"],
        ride_hail_cost=float(raw_cost) if raw_cost else None,
        group_ids=_split_ids(row["group_ids"]),
    )


def _program(row: dict[str, str]) -> Program:
    return Program(
        id=row["id"],
        cost=float(row["cost"]),
        covers=_split_ids(row["covers"]),
        kind=ProgramKind(row["kind"]),
    )


def read_instance(directory: str | Path) -> Instance:
    directory = Path(directory)
    households = read_rows(directory / "households.csv", HOUSEHOLD_COLUMNS, _household)
    programs = read_rows(directory / "programs.csv", PROGRAM_COLUMNS, _program)
    meta = read_rows(directory / "meta.csv", META_COLUMNS, lambda row: float(row["budget"]))
    if len(meta) != 1:
        raise ValueError(f"{directory / 'meta.csv'}: expected exactly one data row")
    return Instance(households=tuple(households), programs=tuple(programs), budget=meta[0])


def write_instance(instance: Instance, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "households.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HOUSEHOLD_COLUMNS)
        for h in instance.households:
            cost = "" if h.ride_hail_cost is None else repr(float(h.ride_hail_cost))
            writer.writerow([h.id, cost, ID_SEPARATOR.join(sorted(h.group_ids))])
    with (directory / "programs.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROGRAM_COLUMNS)
        for p in instance.programs:
            writer.writerow(
                [p.id, repr(float(p.cost)), p.kind.value, ID_SEPARATOR.join(sorted(p.covers))]
            )
    with (directory / "meta.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(META_COLUMNS)
        writer.writerow([repr(float(instance.budget))])
