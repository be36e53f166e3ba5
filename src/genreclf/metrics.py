"""Multi-label evaluation: per-genre precision/recall at a decision
threshold, per-genre average precision, and their macro averages.

Average precision is the non-interpolated area under the precision-recall
curve, AP = sum_k (R_k - R_{k-1}) * P_k, evaluated at the operating points
obtained by sweeping the decision threshold down through the distinct score
values. Samples sharing a score enter together (tied scores can never be
separated by any threshold), which makes AP invariant under score-order
duplication of the dataset and gives AP = prevalence for constant scores.
When an explicit ranking is needed, ties are broken by descending sample
index. Every emitted report records this variant.

Conventions for degenerate denominators: a genre with no predicted
positives has precision 0; a genre with no actual positives in the
evaluated set has undefined recall and AP and is excluded from all three
macro averages (otherwise a model that reproduces the targets exactly
could not reach macro precision 1). The exclusion count is part of the
report.
"""

import io
import csv
from dataclasses import dataclass

import numpy as np

from .vocab import GENRES

AP_VARIANT = "non-interpolated, threshold-grouped ties"


@dataclass
class MetricsReport:
    threshold: float
    n_samples: int
    genres: tuple[str, ...]
    precision: np.ndarray       # per genre, in [0, 1]
    recall: np.ndarray          # per genre; NaN where undefined
    ap: np.ndarray              # per genre; NaN where undefined
    macro_precision: float
    macro_recall: float
    mean_ap: float
    excluded_genres: int        # genres with no positives in the evaluated set
    ap_variant: str = AP_VARIANT


def rank_order(scores: np.ndarray) -> np.ndarray:
    """Indices sorting scores descending, ties broken by descending index."""
    n = len(scores)
    return np.lexsort((-np.arange(n), -np.asarray(scores, dtype=np.float64)))


def precision_recall_at(scores: np.ndarray, targets: np.ndarray, threshold: float):
    """Per-genre precision and recall with decisions ``score >= threshold``.

    Returns (precision, recall, has_positives); recall is NaN for genres
    without positives.
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets)
    decisions = scores >= threshold
    pos = targets > 0
    tp = (decisions & pos).sum(axis=0).astype(np.float64)
    fp = (decisions & ~pos).sum(axis=0).astype(np.float64)
    fn = (~decisions & pos).sum(axis=0).astype(np.float64)
    predicted = tp + fp
    actual = tp + fn
    precision = np.where(predicted > 0, tp / np.where(predicted > 0, predicted, 1.0), 0.0)
    recall = np.where(actual > 0, tp / np.where(actual > 0, actual, 1.0), np.nan)
    return precision, recall, actual > 0


def average_precision(scores: np.ndarray, targets: np.ndarray) -> float:
    """AP for one genre; NaN when there are no positive targets."""
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets) > 0
    total_pos = int(targets.sum())
    if total_pos == 0:
        return float("nan")
    order = rank_order(scores)
    s = scores[order]
    y = targets[order]
    cum_tp = np.cumsum(y)
    ranks = np.arange(1, len(s) + 1)
    # operating points: the last rank of each distinct-score group
    group_end = np.nonzero(np.diff(s, append=-np.inf))[0]
    prec = cum_tp[group_end] / ranks[group_end]
    rec = cum_tp[group_end] / total_pos
    delta_r = np.diff(rec, prepend=0.0)
    return float(np.sum(delta_r * prec))


def mean_average_precision(scores: np.ndarray, targets: np.ndarray) -> float:
    """Unweighted mean of per-genre AP over genres with >= 1 positive."""
    scores = np.asarray(scores)
    targets = np.asarray(targets)
    aps = [average_precision(scores[:, c], targets[:, c]) for c in range(scores.shape[1])]
    valid = [a for a in aps if not np.isnan(a)]
    return float(np.mean(valid)) if valid else float("nan")


def compute_report(scores: np.ndarray, targets: np.ndarray, threshold: float) -> MetricsReport:
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets)
    if scores.ndim != 2 or scores.shape[1] != len(GENRES):
        raise ValueError(f"scores must be (N, {len(GENRES)}), got {scores.shape}")
    if scores.shape[0] < 1:
        raise ValueError("need at least one sample")
    precision, recall, has_pos = precision_recall_at(scores, targets, threshold)
    ap = np.array([average_precision(scores[:, c], targets[:, c]) for c in range(len(GENRES))])
    if has_pos.any():
        macro_p = float(precision[has_pos].mean())
        macro_r = float(recall[has_pos].mean())
        mean_ap = float(ap[has_pos].mean())
    else:
        macro_p = macro_r = mean_ap = float("nan")
    return MetricsReport(
        threshold=float(threshold),
        n_samples=int(scores.shape[0]),
        genres=GENRES,
        precision=precision,
        recall=recall,
        ap=ap,
        macro_precision=macro_p,
        macro_recall=macro_r,
        mean_ap=mean_ap,
        excluded_genres=int((~has_pos).sum()),
    )


def _pct(x: float) -> float:
    return float(x) * 100.0


def format_table(report: MetricsReport) -> str:
    """Aligned per-genre table, percentages with two decimals."""
    width = max(len(g) for g in report.genres + ("AVERAGE",))
    lines = [f"{'Genre':<{width}}  {'P@%.2f' % report.threshold:>8}  {'R@%.2f' % report.threshold:>8}  {'AP':>8}"]
    for i, g in enumerate(report.genres):
        r = "-" if np.isnan(report.recall[i]) else f"{_pct(report.recall[i]):8.2f}"
        a = "-" if np.isnan(report.ap[i]) else f"{_pct(report.ap[i]):8.2f}"
        lines.append(f"{g:<{width}}  {_pct(report.precision[i]):8.2f}  {r:>8}  {a:>8}")
    lines.append(f"{'AVERAGE':<{width}}  {_pct(report.macro_precision):8.2f}  "
                 f"{_pct(report.macro_recall):8.2f}  {_pct(report.mean_ap):8.2f}")
    lines.append(f"samples={report.n_samples} threshold={report.threshold} "
                 f"ap_variant={report.ap_variant!r} "
                 f"genres_without_positives={report.excluded_genres}")
    return "\n".join(lines)


def to_csv(report: MetricsReport) -> str:
    """CSV emission. Values are raw fractions at full float precision so
    that ``report_from_csv(to_csv(r))`` reproduces ``r`` exactly; the
    two-decimal percentage presentation lives in ``format_table``."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["#meta", report.threshold, report.n_samples,
                report.excluded_genres, report.ap_variant])
    w.writerow(["genre", "precision", "recall", "average_precision"])
    for i, g in enumerate(report.genres):
        w.writerow([g, repr(float(report.precision[i])), repr(float(report.recall[i])),
                    repr(float(report.ap[i]))])
    w.writerow(["AVERAGE", repr(report.macro_precision), repr(report.macro_recall), repr(report.mean_ap)])
    return buf.getvalue()


def report_from_csv(text: str) -> MetricsReport:
    """The report in ``text``, laid out as ``to_csv`` writes it; a
    ValueError, and no other error, where it is not."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
        meta, body = rows[0], rows[2:]
        if meta[0] != "#meta":
            raise ValueError("missing #meta row")
        genre_rows = [r for r in body if r and r[0] != "AVERAGE"]
        avg = next(r for r in body if r and r[0] == "AVERAGE")
        precision, recall, ap = (np.array([float(r[i]) for r in genre_rows]) for i in (1, 2, 3))
        return MetricsReport(float(meta[1]), int(meta[2]), tuple(r[0] for r in genre_rows), precision, recall, ap,
                             float(avg[1]), float(avg[2]), float(avg[3]), excluded_genres=int(meta[3]),
                             ap_variant=meta[4])
    except (IndexError, StopIteration, csv.Error) as exc:
        raise ValueError(f"not a metrics report CSV: {exc!r}") from None
