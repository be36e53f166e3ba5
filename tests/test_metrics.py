import numpy as np
import pytest

from genreclf.metrics import (average_precision, compute_report, format_table,
                              mean_average_precision, precision_recall_at,
                              rank_order, report_from_csv, to_csv)
from genreclf.rng import SeededRng
from genreclf.vocab import GENRES
from references import brute_force_ap


class TestAveragePrecision:
    def test_hand_ranked_case(self):
        # ranking: 0.9(+), 0.8(-), 0.3(+) -> (1 + 2/3) / 2
        ap = average_precision(np.array([0.9, 0.8, 0.3]), np.array([1, 0, 1]))
        assert np.isclose(ap, (1.0 + 2.0 / 3.0) / 2.0, atol=1e-12)
        assert np.isclose(ap, 0.83333, atol=1e-5)

    def test_perfect_ranking(self):
        ap = average_precision(np.array([0.9, 0.8, 0.7, 0.2, 0.1]), np.array([1, 1, 1, 0, 0]))
        assert ap == 1.0

    def test_no_positives_undefined(self):
        assert np.isnan(average_precision(np.array([0.5, 0.2]), np.array([0, 0])))

    def test_matches_brute_force_exhaustively(self):
        rng = SeededRng(0)
        checked = 0
        while checked < 1000:
            n = rng.randint(1, 13)
            scores = np.round(rng.uniform((n,)), 1)     # coarse grid forces ties
            targets = (rng.uniform((n,)) < 0.4).astype(int)
            if targets.sum() == 0:
                continue
            got = average_precision(scores, targets)
            want = brute_force_ap(scores, targets)
            assert got == pytest.approx(want, abs=1e-12), (scores, targets)
            checked += 1

    def test_monotone_transform_invariance(self):
        rng = SeededRng(1)
        for seed in range(30):
            r = SeededRng(seed)
            n = r.randint(2, 40)
            scores = r.uniform((n,))
            targets = (r.uniform((n,)) < 0.3).astype(int)
            if targets.sum() == 0:
                targets[0] = 1
            base = average_precision(scores, targets)
            for transform in (lambda s: 3 * s + 1, np.exp, lambda s: np.tanh(2 * s)):
                assert average_precision(transform(scores), targets) == pytest.approx(base, abs=1e-12)

    def test_duplication_invariance(self):
        rng = SeededRng(2)
        for seed in range(30):
            r = SeededRng(seed + 100)
            n = r.randint(2, 20)
            scores = np.round(r.uniform((n,)), 1)
            targets = (r.uniform((n,)) < 0.4).astype(int)
            if targets.sum() == 0:
                targets[-1] = 1
            base = average_precision(scores, targets)
            doubled = average_precision(np.tile(scores, 2), np.tile(targets, 2))
            assert doubled == pytest.approx(base, abs=1e-12)

    def test_constant_scores_give_prevalence(self):
        for n, pos in ((5, 2), (8, 1), (10, 10), (7, 3)):
            targets = np.array([1] * pos + [0] * (n - pos))
            ap = average_precision(np.full(n, 0.25), targets)
            assert ap == pytest.approx(pos / n, abs=1e-12)

    def test_bounded(self):
        rng = SeededRng(3)
        for seed in range(50):
            r = SeededRng(seed + 500)
            n = r.randint(1, 30)
            scores = r.uniform((n,))
            targets = (r.uniform((n,)) < 0.5).astype(int)
            if targets.sum() == 0:
                continue
            ap = average_precision(scores, targets)
            assert 0.0 <= ap <= 1.0

    def test_rank_order_tie_break_descending_index(self):
        order = rank_order(np.array([0.5, 0.7, 0.5, 0.5]))
        assert order.tolist() == [1, 3, 2, 0]


class TestPrecisionRecall:
    def test_single_genre_hand_case(self):
        scores = np.array([[0.9], [0.4]])
        targets = np.array([[1], [0]])
        p, r, has_pos = precision_recall_at(scores, targets, 0.5)
        assert p[0] == 1.0 and r[0] == 1.0 and has_pos[0]

    def test_no_predicted_positives_precision_zero(self):
        p, r, _ = precision_recall_at(np.array([[0.1], [0.2]]), np.array([[1], [0]]), 0.5)
        assert p[0] == 0.0 and r[0] == 0.0

    def test_no_actual_positives_recall_nan(self):
        p, r, has_pos = precision_recall_at(np.array([[0.9], [0.8]]), np.array([[0], [0]]), 0.5)
        assert np.isnan(r[0]) and not has_pos[0]
        assert p[0] == 0.0     # two false positives

    def test_all_positive_all_predicted(self):
        p, r, _ = precision_recall_at(np.ones((4, 2)), np.ones((4, 2)), 0.5)
        assert np.all(p == 1.0) and np.all(r == 1.0)

    def test_threshold_is_inclusive(self):
        p, r, _ = precision_recall_at(np.array([[0.5]]), np.array([[1]]), 0.5)
        assert r[0] == 1.0

    def test_matches_loop_counting(self):
        rng = SeededRng(4)
        scores = rng.uniform((40, 21))
        targets = (rng.uniform((40, 21)) < 0.3).astype(int)
        p, r, _ = precision_recall_at(scores, targets, 0.5)
        for c in range(21):
            tp = sum(1 for i in range(40) if scores[i, c] >= 0.5 and targets[i, c])
            fp = sum(1 for i in range(40) if scores[i, c] >= 0.5 and not targets[i, c])
            fn = sum(1 for i in range(40) if scores[i, c] < 0.5 and targets[i, c])
            assert p[c] == pytest.approx(tp / (tp + fp) if tp + fp else 0.0)
            if tp + fn:
                assert r[c] == pytest.approx(tp / (tp + fn))


class TestMeanAp:
    def test_two_genre_arithmetic(self):
        scores = np.array([[1.0, 0.9], [0.5, 0.1], [0.2, 0.8]])
        targets = np.array([[1, 0], [0, 0], [0, 1]])
        ap0 = average_precision(scores[:, 0], targets[:, 0])
        ap1 = average_precision(scores[:, 1], targets[:, 1])
        assert mean_average_precision(scores, targets) == pytest.approx((ap0 + ap1) / 2)

    def test_genre_without_positives_excluded(self):
        scores = np.array([[0.9, 0.1], [0.3, 0.4]])
        targets = np.array([[1, 0], [0, 0]])
        assert mean_average_precision(scores, targets) == pytest.approx(
            average_precision(scores[:, 0], targets[:, 0]))

    def test_known_mix(self):
        # genres with AP 1.0 and 0.5 average to 0.75
        scores = np.array([[0.9, 0.9], [0.1, 0.8]])
        targets = np.array([[1, 0], [0, 1]])
        assert average_precision(scores[:, 0], targets[:, 0]) == 1.0
        assert average_precision(scores[:, 1], targets[:, 1]) == 0.5
        assert mean_average_precision(scores, targets) == pytest.approx(0.75)


class TestReport:
    def _report(self, seed=0, n=30):
        rng = SeededRng(seed)
        scores = rng.uniform((n, 21))
        targets = (rng.uniform((n, 21)) < 0.3).astype(np.float32)
        return compute_report(scores, targets, 0.5)

    def test_average_row_consistency(self):
        rep = self._report()
        valid = ~np.isnan(rep.recall)      # genres with positives
        assert rep.macro_precision == pytest.approx(rep.precision[valid].mean())
        assert rep.macro_recall == pytest.approx(rep.recall[valid].mean())
        assert rep.mean_ap == pytest.approx(rep.ap[valid].mean())
        assert rep.excluded_genres == int((~valid).sum())

    def test_duplicating_samples_leaves_metrics_unchanged(self):
        rng = SeededRng(7)
        scores = rng.uniform((25, 21))
        targets = (rng.uniform((25, 21)) < 0.3).astype(np.float32)
        a = compute_report(scores, targets, 0.5)
        b = compute_report(np.vstack([scores, scores]), np.vstack([targets, targets]), 0.5)
        assert np.allclose(a.precision, b.precision)
        assert np.allclose(a.recall, b.recall, equal_nan=True)
        assert np.allclose(a.ap, b.ap, equal_nan=True)
        assert a.mean_ap == pytest.approx(b.mean_ap)

    def test_csv_round_trip(self):
        rep = self._report(seed=2)
        back = report_from_csv(to_csv(rep))
        assert back.threshold == rep.threshold
        assert back.n_samples == rep.n_samples
        assert back.genres == rep.genres
        assert np.array_equal(back.precision, rep.precision)
        assert np.array_equal(back.recall, rep.recall, equal_nan=True)
        assert np.array_equal(back.ap, rep.ap, equal_nan=True)
        assert back.mean_ap == rep.mean_ap
        assert back.excluded_genres == rep.excluded_genres
        assert back.ap_variant == rep.ap_variant

    def test_table_formats_reference_values(self):
        # formatting check with reference row values: 87.37 / 48.12 / 79.20
        rep = self._report(seed=3)
        rep.precision[0] = 0.8737
        rep.recall[0] = 0.4812
        rep.ap[0] = 0.7920
        text = format_table(rep)
        line = next(l for l in text.splitlines() if l.startswith("Action"))
        assert "87.37" in line and "48.12" in line and "79.20" in line

    def test_table_has_21_rows_plus_average(self):
        text = format_table(self._report(seed=4))
        lines = text.splitlines()
        assert len([l for l in lines if l.split()[0] in GENRES]) == 21
        assert any(l.startswith("AVERAGE") for l in lines)
