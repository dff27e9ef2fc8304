"""AUC / pAUC against brute-force oracles, harmonic totals, report layout."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grhd.dataset import ClipMetadata, Condition, Domain, Split
from grhd.errors import (
    DegenerateLabels,
    InvalidConfig,
    InvalidP,
    NonFiniteScore,
    NonpositiveValue,
)
from grhd.metrics import (
    EVAL_CSV_HEADER,
    ScoredClip,
    auc,
    build_report,
    cosine_knn_scores,
    harmonic_mean,
    pauc,
)


def brute_force_auc(normals, anomalies):
    """Pair counting straight from the definition."""
    wins = 0.0
    for a in anomalies:
        for n in normals:
            if a > n:
                wins += 1.0
            elif a == n:
                wins += 0.5
    return wins / (len(normals) * len(anomalies))


def brute_force_pauc(normals, anomalies, p):
    """Trapezoidal area over a dense threshold sweep, then standardized."""
    thresholds = sorted(set(normals) | set(anomalies), reverse=True)
    points = [(0.0, 0.0)]
    for t in thresholds:
        fpr = sum(1 for n in normals if n >= t) / len(normals)
        tpr = sum(1 for a in anomalies if a >= t) / len(anomalies)
        points.append((fpr, tpr))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x1 <= p:
            area += (x1 - x0) * (y0 + y1) / 2
        elif x0 < p:
            y_at = y0 + (y1 - y0) * (p - x0) / (x1 - x0)
            area += (p - x0) * (y0 + y_at) / 2
            break
    return 0.5 * (1 + (area - p * p / 2) / (p - p * p / 2))


def random_score_sets(seed, count, max_size=30):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_size + 1))
        a = int(rng.integers(1, max_size + 1))
        # quantized scores force plenty of exact ties
        normals = np.round(rng.uniform(0, 1, n), 1).tolist()
        anomalies = np.round(rng.uniform(0, 1, a), 1).tolist()
        yield normals, anomalies


# ------------------------------------------------------------------- auc ----

def test_auc_separated():
    assert auc([0.1, 0.2], [0.8, 0.9]) == 1.0


def test_auc_one_inversion():
    assert auc([0.1, 0.8], [0.5, 0.9]) == 0.75


def test_auc_all_tied():
    assert auc([0.5, 0.5], [0.5, 0.5]) == 0.5


def test_auc_matches_brute_force_200_sets():
    for normals, anomalies in random_score_sets(seed=11, count=200):
        assert auc(normals, anomalies) == \
            brute_force_auc(normals, anomalies)


def test_auc_empty_side_rejected():
    with pytest.raises(DegenerateLabels):
        auc([], [0.5])
    with pytest.raises(DegenerateLabels):
        auc([0.5], [])


@given(st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
@settings(max_examples=30, deadline=None)
def test_auc_monotone_transform_invariant(scale, shift):
    normals = [0.1, 0.4, 0.4, 0.7]
    anomalies = [0.3, 0.4, 0.9]
    mapped_n = [scale * x + shift for x in normals]
    mapped_a = [scale * x + shift for x in anomalies]
    assert auc(mapped_n, mapped_a) == auc(normals, anomalies)


def test_auc_negation_symmetry():
    normals = [0.1, 0.5, 0.5, 0.9]
    anomalies = [0.2, 0.5, 0.8]
    direct = auc(normals, anomalies)
    flipped = auc([-x for x in anomalies], [-x for x in normals])
    assert direct == flipped


# ------------------------------------------------------------------ pauc ----

@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("side", ["normal", "anomaly"])
def test_auc_and_pauc_reject_non_finite_scores(bad, side):
    normals, anomalies = [0.1, 0.2], [0.3, 0.4]
    if side == "normal":
        normals[0] = bad
    else:
        anomalies[1] = bad
    with pytest.raises(NonFiniteScore):
        auc(normals, anomalies)
    with pytest.raises(NonFiniteScore):
        pauc(normals, anomalies, p=0.1)


def test_auc_nan_is_not_ranked_as_a_tie():
    # The unguarded pair count scored this 0.5.
    with pytest.raises(NonFiniteScore):
        auc([0.1, 0.2], [float("nan"), 0.3])


def test_pauc_perfect_scorer():
    assert pauc([0.1, 0.2], [0.8, 0.9], p=0.1) == 1.0


def test_pauc_all_tied_is_half():
    assert pauc([0.5, 0.5], [0.5, 0.5], p=0.1) == 0.5


def test_pauc_p_one_equals_auc_exactly():
    for normals, anomalies in random_score_sets(seed=13, count=50):
        assert pauc(normals, anomalies, p=1.0) == auc(normals, anomalies)


def test_pauc_matches_brute_force():
    for normals, anomalies in random_score_sets(seed=17, count=100):
        for p in (0.1, 0.25, 0.5):
            got = pauc(normals, anomalies, p=p)
            want = brute_force_pauc(normals, anomalies, p)
            assert got == pytest.approx(want, abs=1e-12)


def test_pauc_invalid_p():
    for p in (0.0, -0.1, 1.5):
        with pytest.raises(InvalidP):
            pauc([0.1], [0.9], p=p)


def test_pauc_degenerate_rejected():
    with pytest.raises(DegenerateLabels):
        pauc([], [0.5])


# --------------------------------------------------------- harmonic mean ----

def test_harmonic_mean_published_totals():
    assert harmonic_mean([0.8464, 0.7243, 0.6882]) * 100 == \
        pytest.approx(74.72, abs=0.01)
    assert harmonic_mean([0.7746, 0.6168, 0.6106]) * 100 == \
        pytest.approx(65.93, abs=0.01)


def test_harmonic_mean_simple():
    assert harmonic_mean([50.0, 50.0, 100.0]) == pytest.approx(60.0)
    assert harmonic_mean([42.0]) == 42.0


def test_harmonic_below_arithmetic():
    rng = np.random.default_rng(19)
    for _ in range(20):
        values = rng.uniform(0.1, 1.0, size=5).tolist()
        assert harmonic_mean(values) <= np.mean(values) + 1e-12


def test_harmonic_mean_rejects_nonpositive():
    with pytest.raises(NonpositiveValue):
        harmonic_mean([])
    with pytest.raises(NonpositiveValue):
        harmonic_mean([0.5, 0.0])
    with pytest.raises(NonpositiveValue):
        harmonic_mean([-1.0, 2.0])


# ---------------------------------------------------------------- report ----

def _scored(machine, section, domain, condition, score):
    meta = ClipMetadata(machine_type=machine, section_id=section,
                        domain=domain, split=Split.TEST, condition=condition,
                        attributes=())
    return ScoredClip(clip_id=f"{machine}_{section}_{domain.value}_{score}",
                      metadata=meta, score=score)


def planted_corpus(auc_value=1.0):
    """Two machines x two sections with a perfect (or broken) scorer."""
    scored = []
    for machine in ("toycar", "fan"):
        for section in (0, 1):
            for domain in (Domain.SOURCE, Domain.TARGET):
                for i in range(4):
                    lo = 0.1 + 0.01 * i
                    hi = (0.8 if auc_value == 1.0 else 0.0) + 0.01 * i
                    scored.append(_scored(machine, section, domain,
                                          Condition.NORMAL, lo))
                    scored.append(_scored(machine, section, domain,
                                          Condition.ANOMALY, hi))
    return scored


def test_report_perfect_scorer_all_ones():
    report = build_report(planted_corpus(1.0), p=0.1)
    assert set(report.totals) == {"auc_s", "auc_t", "pauc", "hauc"}
    for value in report.totals.values():
        assert value == 1.0
    for value in report.auc_cells.values():
        assert value == 1.0


def test_report_totals_recompose():
    """hauc is the harmonic mean of the three totals it is built from."""
    rng = np.random.default_rng(23)
    scored = []
    for machine in ("toycar", "fan"):
        for section in (0, 1):
            for domain in (Domain.SOURCE, Domain.TARGET):
                for _ in range(6):
                    scored.append(_scored(machine, section, domain,
                                          Condition.NORMAL,
                                          float(rng.uniform(0, 1))))
                    scored.append(_scored(machine, section, domain,
                                          Condition.ANOMALY,
                                          float(rng.uniform(0.2, 1.2))))
    report = build_report(scored, p=0.1)
    t = report.totals
    assert t["hauc"] == pytest.approx(
        harmonic_mean([t["auc_s"], t["auc_t"], t["pauc"]]), rel=1e-12)
    source_cells = [v for (m, s, d), v in report.auc_cells.items()
                    if d == Domain.SOURCE.value]
    assert t["auc_s"] == pytest.approx(harmonic_mean(source_cells),
                                       rel=1e-12)


def test_report_degenerate_cell_is_na():
    scored = planted_corpus(1.0)
    # drop every anomaly for one cell
    scored = [s for s in scored
              if not (s.metadata.machine_type == "fan"
                      and s.metadata.section_id == 1
                      and s.metadata.domain is Domain.TARGET
                      and s.metadata.condition is Condition.ANOMALY)]
    report = build_report(scored, p=0.1)
    assert report.auc_cells[("fan", 1, "target")] is None
    rows = report.csv_rows()
    assert any("NA" in row for row in rows)


def test_report_zero_cell_zeroes_totals():
    """A hard-zero AUC cell drives the harmonic totals to zero, not an error."""
    scored = planted_corpus(0.0)
    report = build_report(scored, p=0.1)
    assert report.totals["auc_s"] == 0.0
    assert report.totals["hauc"] == 0.0


@pytest.mark.parametrize("condition", [Condition.ANOMALY, Condition.UNKNOWN])
def test_report_rejects_non_finite_score(condition):
    scored = planted_corpus(1.0)
    scored.append(_scored("fan", 1, Domain.TARGET, condition, float("nan")))
    with pytest.raises(NonFiniteScore, match="nan"):
        build_report(scored, p=0.1)


def test_report_csv_layout():
    report = build_report(planted_corpus(1.0), p=0.1)
    rows = report.csv_rows()
    assert rows[0] == EVAL_CSV_HEADER
    assert rows[-1] == ["ALL", "ALL", "ALL", "hauc", "100.00"]
    machine_rows = [r for r in rows[1:] if r[1] == "ALL" and r[0] != "ALL"]
    assert {r[0] for r in machine_rows} == {"toycar", "fan"}
    for row in rows[1:]:
        if row[4] != "NA":
            float(row[4])  # every value cell is a number scaled to [0, 100]


def test_report_csv_written_deterministically(tmp_path):
    report = build_report(planted_corpus(1.0), p=0.1)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    report.write_csv(a)
    report.write_csv(b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith(",".join(EVAL_CSV_HEADER))


# ------------------------------------------------------------------- knn ----

def test_cosine_knn_identical_vector_zero_distance():
    bank = np.array([[1.0, 0.0], [0.0, 1.0]])
    queries = np.array([[2.0, 0.0]])  # same direction as bank[0]
    scores = cosine_knn_scores(queries, bank, k=1)
    assert scores[0] == pytest.approx(0.0, abs=1e-12)


def test_cosine_knn_orthogonal_vector():
    bank = np.array([[1.0, 0.0]])
    queries = np.array([[0.0, 3.0]])
    assert cosine_knn_scores(queries, bank, k=1)[0] == pytest.approx(1.0)


def test_cosine_knn_k_capped_at_bank_size():
    bank = np.array([[1.0, 0.0], [0.0, 1.0]])
    queries = np.array([[1.0, 1.0]])
    k2 = cosine_knn_scores(queries, bank, k=2)
    k9 = cosine_knn_scores(queries, bank, k=9)
    np.testing.assert_array_equal(k2, k9)


@pytest.mark.parametrize("k", [-1, 0])
def test_cosine_knn_k_below_one_rejected(k):
    bank = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidConfig):
        cosine_knn_scores(np.array([[1.0, 1.0]]), bank, k=k)
