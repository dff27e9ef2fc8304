"""Anomaly scoring and DCASE-style evaluation: AUC, pAUC, harmonic totals.

AUC is the Mann-Whitney statistic (ties credited 0.5); pAUC is the area
under the exact tie-grouped ROC step function restricted to false-positive
rate in [0, p], divided by p.  Both are computed in exact rational
arithmetic, so pauc(p=1) equals auc to the last bit and results match
brute-force oracles exactly.

The anomaly score itself is not pinned down by published descriptions of
classification-based ASD systems; two conventional scorers are provided.
The default (nls) is the negative log softmax probability of the clip's
true section; the alternative (knn) is the mean cosine distance to the k
nearest training embeddings.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import AudioClip, ClipMetadata, ClipRecord, Condition, Domain
from .dsp import SpectrogramConfig, StandardStats
from .errors import (
    DegenerateLabels,
    EmptyBank,
    InvalidP,
    NonFiniteScore,
    NonpositiveValue,
    UnknownSection,
)
from .model import GrhdModel, embed, section_logits
# Not called here: perfbench's tracer wraps `prepare_clips` in every module
# that imports it, this one included.
from .model import prepare_clips  # noqa: F401

EVAL_CSV_HEADER = ["machine", "section", "domain", "metric", "value"]


@dataclass
class ScoredClip:
    clip_id: str
    metadata: ClipMetadata
    score: float  # higher = more anomalous


def _score_arrays(normal_scores: Sequence[float],
                  anomaly_scores: Sequence[float]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Both score sets as float64 arrays; each must be nonempty and finite."""
    if not len(normal_scores) or not len(anomaly_scores):
        raise DegenerateLabels("need at least one normal and one anomaly")
    normals = np.asarray(normal_scores, dtype=np.float64)
    anomalies = np.asarray(anomaly_scores, dtype=np.float64)
    if not (np.isfinite(normals).all() and np.isfinite(anomalies).all()):
        raise NonFiniteScore("scores must be finite to be ranked")
    return normals, anomalies


def auc(normal_scores: Sequence[float],
        anomaly_scores: Sequence[float]) -> float:
    """Fraction of (normal, anomaly) pairs ranked correctly; ties count 0.5."""
    normals, anomalies = _score_arrays(normal_scores, anomaly_scores)
    greater = int((anomalies[:, None] > normals[None, :]).sum())
    ties = int((anomalies[:, None] == normals[None, :]).sum())
    total = normals.size * anomalies.size
    return float(Fraction(2 * greater + ties, 2 * total))


def _roc_vertices(normals: np.ndarray, anomalies: np.ndarray):
    """Tie-grouped ROC polyline as exact (fpr, tpr) Fractions, from (0,0)."""
    thresholds = np.unique(np.concatenate([normals, anomalies]))[::-1]
    n_n, n_a = normals.size, anomalies.size
    points = [(Fraction(0), Fraction(0))]
    fp = tp = 0
    for t in thresholds:
        fp += int((normals == t).sum())
        tp += int((anomalies == t).sum())
        points.append((Fraction(fp, n_n), Fraction(tp, n_a)))
    return points


def pauc(normal_scores: Sequence[float], anomaly_scores: Sequence[float],
         p: float = 0.1) -> float:
    """Partial AUC over false-positive rate [0, p].

    The raw area is standardized so a random scorer gives 0.5 and a perfect
    one gives 1 for every p (the sklearn / DCASE convention); at p = 1 this
    reduces exactly to the full AUC.
    """
    if not (0.0 < p <= 1.0):
        raise InvalidP(f"p must lie in (0, 1], got {p}")
    normals, anomalies = _score_arrays(normal_scores, anomaly_scores)
    points = _roc_vertices(normals, anomalies)
    limit = Fraction(p)
    area = Fraction(0)
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x1 <= limit:
            area += (x1 - x0) * (y0 + y1) / 2
        elif x0 < limit:
            # Interpolate the tpr at the fpr limit and close the region.
            y_at = y0 + (y1 - y0) * (limit - x0) / (x1 - x0)
            area += (limit - x0) * (y0 + y_at) / 2
            break
    min_area = limit * limit / 2
    max_area = limit
    return float(Fraction(1, 2) *
                 (1 + (area - min_area) / (max_area - min_area)))


def harmonic_mean(values: Sequence[float]) -> float:
    if not len(values):
        raise NonpositiveValue("harmonic mean of an empty sequence")
    if min(values) <= 0:
        raise NonpositiveValue(f"all values must be positive, got {values}")
    return len(values) / sum(1.0 / v for v in values)


@dataclass
class EvalReport:
    """Per-cell metrics plus harmonic-average totals (all values in [0, 1])."""

    # (machine, section, domain) -> AUC; None marks a degenerate cell.
    auc_cells: dict[tuple[str, int, str], float | None] = \
        field(default_factory=dict)
    # (machine, section) -> pAUC over both domains pooled.
    pauc_cells: dict[tuple[str, int], float | None] = \
        field(default_factory=dict)
    per_machine: dict[str, dict[str, float]] = field(default_factory=dict)
    totals: dict[str, float] = field(default_factory=dict)
    p: float = 0.1

    def csv_rows(self) -> list[list[str]]:
        def fmt(v):
            return "NA" if v is None else f"{100.0 * v:.2f}"

        rows = [EVAL_CSV_HEADER]
        for (machine, section, domain), v in sorted(self.auc_cells.items()):
            rows.append([machine, str(section), domain, "auc", fmt(v)])
        for (machine, section), v in sorted(self.pauc_cells.items()):
            rows.append([machine, str(section), "both", "pauc", fmt(v)])
        for machine in sorted(self.per_machine):
            for metric, v in sorted(self.per_machine[machine].items()):
                rows.append([machine, "ALL", "ALL", metric, fmt(v)])
        for metric in ("auc_s", "auc_t", "pauc", "hauc"):
            if metric in self.totals:
                rows.append(["ALL", "ALL", "ALL", metric,
                             fmt(self.totals[metric])])
        return rows

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(self.csv_rows())


def build_report(scored: Sequence[ScoredClip], p: float = 0.1) -> EvalReport:
    """Assemble the evaluation report from scored test clips.

    AUC is computed per (machine, section, domain); pAUC per section with
    both domains pooled.  Degenerate cells (missing normals or anomalies)
    are flagged as NA and skipped by the harmonic totals.  A non-finite
    score anywhere is an error, not a rank.
    """
    by_cell: dict[tuple[str, int], dict[str, dict[str, list[float]]]] = \
        defaultdict(lambda: defaultdict(lambda: {"normal": [], "anomaly": []}))
    for sc in scored:
        if not np.isfinite(sc.score):
            raise NonFiniteScore(f"{sc.clip_id}: score {sc.score}")
        m = sc.metadata
        if m.condition not in (Condition.NORMAL, Condition.ANOMALY):
            continue
        cell = by_cell[(m.machine_type, m.section_id)]
        cell[m.domain.value][m.condition.value].append(sc.score)

    report = EvalReport(p=p)
    per_machine_cells: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(list))
    for (machine, section), domains in sorted(by_cell.items()):
        pooled = {"normal": [], "anomaly": []}
        for domain in (Domain.SOURCE.value, Domain.TARGET.value):
            scores = domains.get(domain, {"normal": [], "anomaly": []})
            pooled["normal"] += scores["normal"]
            pooled["anomaly"] += scores["anomaly"]
            try:
                value = auc(scores["normal"], scores["anomaly"])
            except DegenerateLabels:
                value = None
            report.auc_cells[(machine, section, domain)] = value
            if value is not None:
                key = "auc_s" if domain == Domain.SOURCE.value else "auc_t"
                per_machine_cells[machine][key].append(value)
        try:
            value = pauc(pooled["normal"], pooled["anomaly"], p)
        except DegenerateLabels:
            value = None
        report.pauc_cells[(machine, section)] = value
        if value is not None:
            per_machine_cells[machine]["pauc"].append(value)

    def hmean(values):
        # A zero cell drives the harmonic mean to its limit, zero; only the
        # standalone harmonic_mean op treats nonpositive input as an error.
        return 0.0 if min(values) <= 0 else harmonic_mean(values)

    all_cells: dict[str, list[float]] = defaultdict(list)
    for machine, groups in sorted(per_machine_cells.items()):
        report.per_machine[machine] = {}
        for metric, values in groups.items():
            report.per_machine[machine][metric] = hmean(values)
            all_cells[metric] += values
    for metric in ("auc_s", "auc_t", "pauc"):
        if all_cells.get(metric):
            report.totals[metric] = hmean(all_cells[metric])
    if all(k in report.totals for k in ("auc_s", "auc_t", "pauc")):
        report.totals["hauc"] = hmean(
            [report.totals["auc_s"], report.totals["auc_t"],
             report.totals["pauc"]])
    return report


def score_nls(model: GrhdModel, clips: Sequence[AudioClip | ClipRecord],
              dsp_cfg: SpectrogramConfig, stats: StandardStats,
              sections: list[int]) -> list[ScoredClip]:
    """Negative log softmax probability of the clip's true section."""
    sec_index = {s: i for i, s in enumerate(sections)}
    for clip in clips:
        if clip.metadata.section_id not in sec_index:
            raise UnknownSection(
                f"{clip.clip_id}: section {clip.metadata.section_id} "
                "unknown to the model")
    logits = section_logits(model, clips, dsp_cfg, stats)
    scored = []
    for clip, row in zip(clips, logits):
        z = row.astype(np.float64)
        z = z - z.max()
        log_probs = z - np.log(np.exp(z).sum())
        scored.append(ScoredClip(
            clip_id=clip.clip_id, metadata=clip.metadata,
            score=float(-log_probs[sec_index[clip.metadata.section_id]])))
    return scored


def cosine_knn_scores(queries: np.ndarray, bank: np.ndarray,
                      k: int = 1) -> np.ndarray:
    """Mean cosine distance to the k nearest reference embeddings."""
    if bank.size == 0:
        raise EmptyBank("empty reference bank")
    k = min(k, bank.shape[0])

    def normalize(x):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        return x / np.maximum(norms, 1e-12)

    sim = normalize(queries.astype(np.float64)) @ \
        normalize(bank.astype(np.float64)).T
    dist = 1.0 - sim
    dist.sort(axis=1)
    return dist[:, :k].mean(axis=1)


def score_knn(model: GrhdModel, clips: Sequence[AudioClip | ClipRecord],
              dsp_cfg: SpectrogramConfig, stats: StandardStats,
              bank: np.ndarray, k: int = 1) -> list[ScoredClip]:
    """Embedding-distance scorer over pooled attribute-head features."""
    queries = embed(model, clips, dsp_cfg, stats)["z_att"]
    scores = cosine_knn_scores(queries, bank, k=k)
    return [ScoredClip(clip_id=c.clip_id, metadata=c.metadata,
                       score=float(s))
            for c, s in zip(clips, scores)]


def evaluate(model: GrhdModel, test_clips: Sequence[AudioClip | ClipRecord],
             dsp_cfg: SpectrogramConfig, stats: StandardStats,
             sections: list[int], scorer: str = "nls", p: float = 0.1,
             bank: np.ndarray | None = None,
             knn_k: int = 1) -> tuple[EvalReport, list[ScoredClip]]:
    """Score a test corpus with a trained model and assemble the report."""
    if scorer == "nls":
        scored = score_nls(model, test_clips, dsp_cfg, stats, sections)
    elif scorer == "knn":
        if bank is None:
            raise EmptyBank("knn scorer needs a reference bank")
        scored = score_knn(model, test_clips, dsp_cfg, stats, bank, k=knn_k)
    else:
        raise InvalidP(f"unknown scorer {scorer!r}")
    return build_report(scored, p=p), scored
