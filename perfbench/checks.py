"""Output checks for one comparison, and the failure count they feed.

Pure standard library, so the smoke test can feed these functions corrupted
outputs without running the simulator.
"""

from __future__ import annotations

import json
import math

from workloads import expected_participants

ZERO_BYTE_METHODS = ("local_only", "centralized")
# Column of fedcore.ROUND_CSV_HEADER holding the round's participant count.
N_PARTICIPANTS = 4


def base_method(method: str) -> str:
    return method.removesuffix("_personalized")


def client_rounds(trace_rows: dict) -> int:
    """Participant count summed over each base method's round trace, once per base."""
    seen: dict[str, list] = {}
    for method in sorted(trace_rows):
        seen.setdefault(base_method(method), trace_rows[method])
    return sum(int(row[N_PARTICIPANTS]) for rows in seen.values() for row in rows)


def check_comparison(json_text: str, trace_rows: dict, expect: dict) -> list[str]:
    """Problems found in one rendered comparison; empty when it is correct.

    * every requested method has a row with a finite mean MAE;
    * local_only and centralized meter 0 bytes;
    * every FL method ran every round with the closed-form participant count,
      and meters bytes_up = sum(participants) * param_bytes and bytes_down
      the same times k for ifca.
    """
    problems: list[str] = []
    try:
        table = json.loads(json_text)["tables"][0]
        rows = {row["method"]: row for row in table["rows"]}
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"comparison JSON is malformed: {exc!r}"]
    if sorted(rows) != expect["methods"]:
        problems.append(f"methods {sorted(rows)} != requested {expect['methods']}")
    for method in sorted(set(rows) & set(expect["methods"])):
        row = rows[method]
        mae = row["mean"]["mae"]
        if not isinstance(mae, (int, float)) or not math.isfinite(mae):
            problems.append(f"{method}: mean MAE {mae!r} is not finite")
        if row["bytes_total"] != row["bytes_up"] + row["bytes_down"]:
            problems.append(f"{method}: bytes_total != bytes_up + bytes_down")
        base = base_method(method)
        if base in ZERO_BYTE_METHODS:
            if row["bytes_up"] or row["bytes_down"]:
                problems.append(f"{method}: meters {row['bytes_total']} bytes, expected 0")
            continue
        trace = trace_rows.get(method, [])
        if len(trace) != expect["rounds"]:
            problems.append(f"{method}: {len(trace)} rounds, expected {expect['rounds']}")
        participants = 0
        for r, trace_row in enumerate(trace, start=1):
            want = expected_participants(expect, base, r)
            if trace_row[N_PARTICIPANTS] != want:
                problems.append(
                    f"{method}: round {r} has {trace_row[N_PARTICIPANTS]} participants, "
                    f"expected {want}"
                )
            participants += want
        up = participants * expect["param_bytes"]
        down = up * (expect["k"] if base == "ifca" else 1)
        if row["bytes_up"] != up:
            problems.append(f"{method}: bytes_up {row['bytes_up']} != closed form {up}")
        if row["bytes_down"] != down:
            problems.append(f"{method}: bytes_down {row['bytes_down']} != closed form {down}")
    return problems


def count_failures(iterations: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over comparison iterations of one run.

    An iteration fails when its own checks found a problem or when its
    outputs differ in any byte from the run's first iteration.
    """
    if not iterations:
        return 0, 0
    reference = (iterations[0]["json_sha256"], iterations[0]["csv_sha256"])
    failed = sum(
        1
        for it in iterations
        if it["problems"] or (it["json_sha256"], it["csv_sha256"]) != reference
    )
    return len(iterations), failed
