"""Output checks, computed apart from the program after the timed phase.

Each check returns a list of error strings; an empty list means it passed.
The reference values (schedules, pair counts, cosine distances) are
recomputed here with plain Python or numpy, never with grhd's own code.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

DETECTION_BOUNDS = {"auc_s": 90.0, "auc_t": 80.0}  # the gate's, in percent
EMBED_COLUMNS = 5 + 128 + 48 + 48


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _pct(value: Fraction) -> str:
    """The report's cell format: percent with two decimals."""
    return f"{100.0 * float(value):.2f}"


def brute_auc(normals, anomalies) -> Fraction:
    """Share of (normal, anomaly) pairs ranked correctly; a tie counts 1/2."""
    halves = 0
    for a in anomalies:
        for n in normals:
            halves += 2 if a > n else (1 if a == n else 0)
    return Fraction(halves, 2 * len(normals) * len(anomalies))


def check_loss_log(path: Path, epochs: int, lr0: float = 0.001,
                   eta_min: float = 0.0, gain: float = 10.0) -> list[str]:
    rows = _rows(path)
    if rows[0] != ["epoch", "lr", "lambda", "l_rev", "l_sec", "l_att",
                   "l_total"]:
        return [f"loss log header {rows[0]}"]
    body = rows[1:]
    if len(body) != epochs:
        return [f"loss log has {len(body)} rows, want {epochs}"]
    errors = []
    for k, row in enumerate(body):
        values = [float(v) for v in row[1:]]
        if int(row[0]) != k + 1 or not all(map(math.isfinite, values)):
            errors.append(f"loss log row {k + 1} is not finite: {row}")
            continue
        progress = k / epochs
        ramp = 2.0 / (1.0 + math.exp(-gain * progress)) - 1.0
        lr = eta_min + 0.5 * (lr0 - eta_min) * (
            1.0 + math.cos(math.pi * progress))
        if not math.isclose(values[1], ramp, rel_tol=1e-12, abs_tol=1e-15):
            errors.append(f"epoch {k + 1}: lambda {values[1]} != {ramp}")
        if not math.isclose(values[0], lr, rel_tol=1e-12, abs_tol=1e-15):
            errors.append(f"epoch {k + 1}: lr {values[0]} != {lr}")
    # The heads trained by plain descent must improve.  l_total is not
    # checked: it includes l_rev, which the reversal branch drives up as
    # lambda ramps (in 4 epochs, seed 105 goes 1.546 -> 1.680 while l_sec and
    # l_att fall); it falls reliably only over the gate's 30 epochs.
    for col, name in ((4, "l_sec"), (5, "l_att")):
        if not errors and float(body[-1][col]) >= float(body[0][col]):
            errors.append(f"{name} did not fall: {body[0][col]} -> "
                          f"{body[-1][col]}")
    return errors


def report_cells(path: Path) -> tuple[dict, dict]:
    """(machine, section, domain) -> AUC cell, and the ALL-row totals."""
    cells, totals = {}, {}
    for machine, section, domain, metric, value in _rows(path)[1:]:
        if metric == "auc" and section != "ALL":
            cells[(machine, int(section), domain)] = value
        elif machine == "ALL":
            totals[metric] = float(value)
    return cells, totals


def _split_scores(items) -> dict:
    """(machine, section, domain) -> {"normal": [...], "anomaly": [...]}."""
    groups: dict = {}
    for key, condition, score in items:
        groups.setdefault(key, {"normal": [], "anomaly": []})
        groups[key][condition].append(score)
    return groups


def check_auc_cells(path: Path, items) -> list[str]:
    """Each AUC cell equals a brute-force pair count over per-clip scores.

    ``items`` holds (machine, section, domain), condition and score per clip.
    """
    cells, _ = report_cells(path)
    groups = _split_scores(items)
    errors = []
    if set(cells) != set(groups):
        return [f"{path.name}: cells {sorted(cells)} != {sorted(groups)}"]
    for key, scores in sorted(groups.items()):
        want = _pct(brute_auc(scores["normal"], scores["anomaly"]))
        if cells[key] != want:
            errors.append(f"{path.name}: AUC {key} is {cells[key]}, "
                          f"pair count gives {want}")
    return errors


def scored_items(scored) -> list:
    return [((c.metadata.machine_type, c.metadata.section_id,
              c.metadata.domain.value), c.metadata.condition.value, c.score)
            for c in scored]


def check_detection(path: Path) -> list[str]:
    _, totals = report_cells(path)
    return [f"{path.name}: {k} = {totals.get(k)} < {bound}"
            for k, bound in DETECTION_BOUNDS.items()
            if not totals.get(k, 0.0) >= bound]


def check_scored_once(scored, test_ids: set[str], label: str) -> list[str]:
    ids = [c.clip_id for c in scored]
    errors = []
    if len(ids) != len(set(ids)) or set(ids) != test_ids:
        errors.append(f"{label}: scored {len(ids)} clips "
                      f"({len(set(ids))} distinct), want {len(test_ids)}")
    if not all(math.isfinite(c.score) for c in scored):
        errors.append(f"{label}: a score is not finite")
    return errors


def check_embed_and_knn(embed_csv: Path, clip_ids: set[str],
                        knn_report: Path) -> list[str]:
    """Embedding CSV shape, then 1-NN cosine distances recomputed from it."""
    rows = _rows(embed_csv)
    header, body = rows[0], rows[1:]
    errors = []
    if len(header) != EMBED_COLUMNS or \
            any(len(r) != EMBED_COLUMNS for r in body):
        errors.append(f"embed CSV rows are not {EMBED_COLUMNS} columns wide")
    if sorted(r[0] for r in body) != sorted(clip_ids):
        errors.append(f"embed CSV has {len(body)} rows for "
                      f"{len(clip_ids)} clips")
    if errors:
        return errors
    att = [i for i, h in enumerate(header) if h.startswith("z_att_")]
    train = [r for r in body if "_train_" in r[0]]
    test = [r for r in body if "_test_" in r[0]]

    def unit(rows):
        x = np.array([[float(r[i]) for i in att] for r in rows])
        return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True),
                              1e-12)

    dist = (1.0 - unit(test) @ unit(train).T).min(axis=1)
    if not np.all((dist >= -1e-12) & (dist <= 2.0 + 1e-12)):
        errors.append(f"1-NN cosine distance outside [0, 2]: "
                      f"[{dist.min()}, {dist.max()}]")
    items = [((r[1], int(r[2]), r[3]), r[4], float(d))
             for r, d in zip(test, dist)]
    return errors + check_auc_cells(knn_report, items)


def check_gradcheck(rc: int, stdout: str) -> list[str]:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    errors = [] if rc == 0 else [f"gradcheck exited {rc}"]
    for need in ("OVERALL PASS", "PASS grl_twin_rule", "PASS assembled_network"):
        if not any(ln.startswith(need) for ln in lines):
            errors.append(f"gradcheck output lacks {need!r}")
    errors += [f"gradcheck: {ln}" for ln in lines
               if not (ln.startswith("PASS ") or ln == "OVERALL PASS")]
    return errors
