#!/usr/bin/env python3
"""Aggregate the committed BENCH_e*.json artifacts into one markdown table.

Each bench binary emits a BENCH_e<N>.json next to its human-readable table
(see bench/bench_common.hpp). This script folds them into a single
greppable trajectory table on stdout: one row per experiment with its
headline numbers and gate verdicts, so the perf history lives in one place
instead of spread across the artifact files.

Usage: scripts/bench_summary.py [dir]    (default: repo root = script/..)
Exit code 1 if any gate in any artifact failed, 0 otherwise.

An artifact whose gates all pass but whose gated-row count (a gate named
*rows*, e.g. stream_scaling_rows) is zero reports `vacuous (<key>=0)`
instead of `pass`: its gate judged nothing. Vacuous rows do not change the
exit code.

Stdlib only (json/glob); tolerant of per-experiment schema differences:
gates may be an object of named values (e13..e20) or a list of
{name, value, floor, pass} rows (e21+); booleans render as PASS/FAIL.
"""

import json
import re
import sys
from pathlib import Path


def fmt_num(v):
    if isinstance(v, bool):
        return "PASS" if v else "FAIL"
    if isinstance(v, float):
        return f"{v:.3g}"
    return str(v)


def gate_entries(gates):
    """Normalizes both gate schemas to (name, text, ok_or_None) tuples."""
    out = []
    if isinstance(gates, dict):
        for name, value in gates.items():
            ok = value if isinstance(value, bool) else None
            out.append((name, fmt_num(value), ok))
    elif isinstance(gates, list):
        for g in gates:
            name = g.get("name", "?")
            ok = g.get("pass")
            text = f"{fmt_num(g.get('value'))}/{fmt_num(g.get('floor'))}"
            out.append((name, text, ok))
    return out


def zero_row_count(gates):
    """Name of a gated-row count that is zero (the gates judged no rows)."""
    if isinstance(gates, dict):
        pairs = gates.items()
    elif isinstance(gates, list):
        pairs = ((g.get("name", "?"), g.get("value")) for g in gates)
    else:
        return None
    for name, value in pairs:
        if ("rows" in name and isinstance(value, (int, float))
                and not isinstance(value, bool) and value == 0):
            return name
    return None


def headline(data):
    """Top-level scalar highlights that are not config or gates."""
    skip = {"experiment", "title", "config", "gates"}
    parts = []
    for key, value in data.items():
        if key in skip or isinstance(value, (dict, list)):
            continue
        parts.append(f"{key}={fmt_num(value)}")
    return " ".join(parts)


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent)
    files = sorted(
        root.glob("BENCH_e*.json"),
        key=lambda p: int(re.search(r"e(\d+)", p.name).group(1)))
    if not files:
        print(f"no BENCH_e*.json under {root}", file=sys.stderr)
        return 1

    rows = []
    any_fail = False
    for path in files:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            rows.append((path.stem, f"unreadable: {err}", "", "FAIL"))
            any_fail = True
            continue
        gates = gate_entries(data.get("gates"))
        fails = [name for name, _, ok in gates if ok is False]
        any_fail = any_fail or bool(fails)
        gate_text = " ".join(f"{name}={text}" for name, text, _ in gates)
        vacuous = zero_row_count(data.get("gates"))
        if fails:
            status = "FAIL: " + ",".join(fails)
        elif not gates:
            status = "-"
        elif vacuous:
            status = f"vacuous ({vacuous}=0)"
        else:
            status = "pass"
        rows.append((data.get("experiment", path.stem),
                     data.get("title", ""),
                     " ".join(x for x in (headline(data), gate_text) if x),
                     status))

    widths = [max(len(r[i]) for r in rows + [("exp", "title", "headline / gates", "status")])
              for i in range(4)]
    header = ("exp", "title", "headline / gates", "status")
    print("| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |")
    print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for r in rows:
        print("| " + " | ".join(c.ljust(w) for c, w in zip(r, widths)) + " |")
    return 1 if any_fail else 0


if __name__ == "__main__":
    sys.exit(main())
