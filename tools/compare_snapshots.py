"""Compare two report snapshots written by ``tools/snapshot_reports.py``.

    python tools/compare_snapshots.py OUT1 OUT2

Every invocation folder of OUT1 is matched with the one of the same name in
OUT2.  Exit codes and stderr must match byte for byte.  Reports (stdout, or
the ``report`` file of ``skrp``/``completeness``) are parsed as JSON or CSV,
and so are the side CSVs.  In them, every field that is not a float must
match: check names, statuses, string ``measured`` values, the config echo
and the row count of each table.  Floats may shift; each shifted float is
listed as ``invocation/file field: old -> new (rel shift)``.

Exits 1 when anything but a float differs, listing each difference first;
otherwise exits 0 after the list of shifted floats (empty when the trees
report the same numbers).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _shift(field: str, old: float, new: float) -> tuple[str, float, float, float]:
    rel = abs(new - old) / abs(old) if old else math.inf
    return field, old, new, rel


def _compare_json(old, new, path: str, diffs: list[str], shifts: list) -> None:
    if isinstance(old, float) and isinstance(new, float):
        if not _same_float(old, new):
            shifts.append(_shift(path, old, new))
    elif isinstance(old, dict) and isinstance(new, dict):
        if sorted(old) != sorted(new):
            diffs.append(f"{path or 'report'}: keys {sorted(old)} != {sorted(new)}")
            return
        for key in sorted(old):
            _compare_json(old[key], new[key], f"{path}.{key}" if path else key, diffs, shifts)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            diffs.append(f"{path}: {len(old)} entries != {len(new)}")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            label = a["name"] if isinstance(a, dict) and "name" in a else i
            _compare_json(a, b, f"{path}[{label}]", diffs, shifts)
    elif type(old) is not type(new) or old != new:
        diffs.append(f"{path}: {old!r} != {new!r}")


def _compare_csv(old: str, new: str, diffs: list[str], shifts: list) -> None:
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if len(old_rows) != len(new_rows):
        diffs.append(f"{len(old_rows) - 1} rows != {len(new_rows) - 1}")
        return
    if not old_rows:
        return
    header = old_rows[0]
    if new_rows[0] != header:
        diffs.append(f"header {header} != {new_rows[0]}")
        return
    for r, (a_row, b_row) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
        if len(a_row) != len(b_row):
            diffs.append(f"row {r}: {a_row} != {b_row}")
            continue
        for c, (a, b) in enumerate(zip(a_row, b_row)):
            field = f"row {r} ({a_row[0]}) {header[c] if c < len(header) else c}"
            if a == b:
                continue
            if _is_float(a) and _is_float(b):
                if not _same_float(float(a), float(b)):
                    shifts.append(_shift(field, float(a), float(b)))
            else:
                diffs.append(f"{field}: {a!r} != {b!r}")


def _compare_document(name: str, old: str, new: str, diffs: list[str], shifts: list) -> None:
    """Compare two report or side-CSV texts, as JSON when both parse as JSON."""
    if old == new:
        return
    if not name.endswith(".csv"):
        try:
            old_doc, new_doc = json.loads(old), json.loads(new)
        except ValueError:
            pass
        else:
            _compare_json(old_doc, new_doc, "", diffs, shifts)
            return
    _compare_csv(old, new, diffs, shifts)


def compare(out1: str, out2: str) -> tuple[list[str], list]:
    """(differences, float shifts) between two snapshot trees."""
    diffs: list[str] = []
    shifts: list = []
    runs = lambda out: {d for d in os.listdir(out) if d != "configs" and os.path.isdir(os.path.join(out, d))}
    old_runs, new_runs = runs(out1), runs(out2)
    for ident in sorted(old_runs ^ new_runs):
        diffs.append(f"{ident}: only in {out1 if ident in old_runs else out2}")
    for ident in sorted(old_runs & new_runs):
        old_dir, new_dir = os.path.join(out1, ident), os.path.join(out2, ident)
        files = sorted(set(os.listdir(old_dir)) | set(os.listdir(new_dir)))
        for name in files:
            paths = (os.path.join(old_dir, name), os.path.join(new_dir, name))
            if not all(os.path.exists(p) for p in paths):
                diffs.append(f"{ident}/{name}: present in one tree only")
                continue
            old, new = (open(p, encoding="utf-8", newline="").read() for p in paths)
            if name in ("exit", "stderr"):
                if old != new:
                    diffs.append(f"{ident}/{name}: {old!r} != {new!r}")
                continue
            local_diffs: list[str] = []
            local_shifts: list = []
            _compare_document(name, old, new, local_diffs, local_shifts)
            diffs += [f"{ident}/{name} {d}" for d in local_diffs]
            shifts += [(f"{ident}/{name} {field}", *rest) for field, *rest in local_shifts]
    return diffs, shifts


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(a) for a in args):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    diffs, shifts = compare(*args)
    for line in diffs:
        print(f"DIFF {line}")
    for field, old, new, rel in shifts:
        print(f"{field}: {old!r} -> {new!r} (rel {rel:.2e})")
    print(f"{len(diffs)} differences, {len(shifts)} shifted floats")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
