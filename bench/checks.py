"""Correctness checks on the outputs of one workload pass.

A check is one CSV row or one trace file.  Every seed gets the invariant
checks (row keys, `rep_count`, `NA` placement, finite numbers, trace
ordering) and, where the workload has one, the closed-form check.  The
golden seed also gets byte checks against the digests the seed code wrote
to golden.json.
"""

import hashlib
import math

# |z| limit of the M/D/1 check.  With 8 replications z follows Student's t
# with 7 degrees of freedom, and P(|t| > 8) is about 1e-4.
Z_MAX = 8.0

TRACE_FILE = "trace.csv"
TRACE_FIELDS = 11
VALIDITIES = {"valid", "mvcc_invalid", "vscc_invalid", "lost"}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def rep_total(outputs):
    """Replications reported by the CSV outputs: the sum of their rep_count cells."""
    total = 0
    for name, text in outputs.items():
        if name != TRACE_FILE:
            for line in text.splitlines()[1:]:
                cells = line.split(",")
                if len(cells) > 2 and cells[2].isdigit():
                    total += int(cells[2])
    return total


def describe(outputs):
    """Golden entry for one pass's outputs: digests and the seed-independent shape."""
    files = {}
    for name, text in outputs.items():
        lines = text.splitlines()
        entry = {"sha256": sha256(text), "header": lines[0]}
        if name != TRACE_FILE:
            entry["rows"] = []
            for line in lines[1:]:
                cells = line.split(",")
                entry["rows"].append({
                    "sha256": sha256(line),
                    "key": cells[:2],
                    "na": [i for i, c in enumerate(cells) if c == "NA"],
                })
        files[name] = entry
    return files


def check_outputs(outputs, golden, reps, closed_form, with_digests):
    """All checks of one pass, as a list of (check name, failure reason or None)."""
    results = []
    for name, entry in golden.items():
        text = outputs.get(name)
        if name == TRACE_FILE:
            reason = "missing" if text is None else _trace_failure(text, entry, reps, with_digests)
            results.append((name, reason))
        else:
            results += _csv_checks(name, text, entry, reps, closed_form, with_digests)
    for name in outputs.keys() - golden.keys():
        results.append((name, "unexpected output file"))
    return results


def _csv_checks(name, text, entry, reps, closed_form, with_digests):
    expected = entry["rows"]
    if text is None:
        return [(f"{name} row {i}", "missing file") for i in range(len(expected))]
    lines = text.splitlines()
    if lines[0] != entry["header"]:
        return [(f"{name} row {i}", "header differs") for i in range(len(expected))]
    rows = lines[1:]
    results = []
    for i, want in enumerate(expected):
        reason = "missing row"
        if i < len(rows):
            reason = _row_failure(rows[i], want, entry["header"], reps, closed_form)
            if reason is None and with_digests and sha256(rows[i]) != want["sha256"]:
                reason = "row bytes differ from golden"
        results.append((f"{name} row {i}", reason))
    results += [(f"{name} row {i}", "extra row") for i in range(len(expected), len(rows))]
    if (with_digests and sha256(text) != entry["sha256"]
            and all(reason is None for _, reason in results)):
        results[0] = (results[0][0], "file bytes differ from golden outside the rows")
    return results


def _row_failure(line, want, header, reps, closed_form):
    cells = line.split(",")
    columns = header.split(",")
    if len(cells) != len(columns):
        return f"{len(cells)} cells, header has {len(columns)}"
    if cells[:2] != want["key"]:
        return f"key {cells[:2]} != {want['key']}"
    if cells[2] != str(reps):
        return f"rep_count {cells[2]} != {reps}"
    na = [i for i, c in enumerate(cells) if c == "NA"]
    if na != want["na"]:
        return f"NA in columns {na}, seed code has {want['na']}"
    values = {}
    for column, cell in zip(columns[3:], cells[3:]):
        if cell == "NA":
            continue
        try:
            values[column] = float(cell)
        except ValueError:
            return f"{column} = {cell!r} is not a number"
        if not math.isfinite(values[column]):
            return f"{column} = {cell} is not finite"
    expected = closed_form(*cells[:2]) if closed_form else None
    if expected is not None:
        se = values["avg_aoi_std"] / math.sqrt(reps)
        z = (values["avg_aoi_mean"] - expected) / se if se > 0 else math.inf
        if not abs(z) <= Z_MAX:
            return f"avg_aoi_mean {values['avg_aoi_mean']} vs closed form {expected}: z = {z:.2f}"
    return None


def _trace_failure(text, entry, reps, with_digests):
    if with_digests and sha256(text) != entry["sha256"]:
        return "trace bytes differ from golden"
    lines = text.splitlines()
    if lines[0] != entry["header"]:
        return "trace header differs"
    seen = set()
    reps_seen = set()
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != TRACE_FIELDS:
            return f"line {n}: {len(cells)} fields"
        rep, tid, validity = cells[0], cells[1], cells[-1]
        if validity not in VALIDITIES:
            return f"line {n}: validity {validity!r}"
        if (rep, tid) in seen:
            return f"line {n}: duplicate id {tid} in rep {rep}"
        seen.add((rep, tid))
        reps_seen.add(rep)
        times = cells[4:7] + cells[8:10]
        if validity == "lost":
            if any(c != "NA" for c in times[1:]):
                return f"line {n}: lost proposal with pipeline times"
            continue
        try:
            stamps = [float(c) for c in times]
        except ValueError:
            return f"line {n}: a time is not a number"
        if stamps != sorted(stamps):
            return f"line {n}: gen/arrive/endorse/order/commit times out of order"
    if reps_seen != {str(k) for k in range(reps)}:
        return f"replications {sorted(reps_seen)} in trace, expected 0..{reps - 1}"
    return None
