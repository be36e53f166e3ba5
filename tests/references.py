"""Plain reference computations that more than one test module compares the
package against."""

import numpy as np

from genreclf.data import make_batch
from genreclf.metrics import compute_report
from genreclf.models import predict_scores


def brute_force_ap(scores, targets):
    """Independent AP reference: walk the distinct decision thresholds from
    high to low, counting the confusion entries with explicit loops, and
    integrate precision over recall increments."""
    scores = [float(s) for s in scores]
    targets = [bool(t) for t in targets]
    total_pos = sum(targets)
    if total_pos == 0:
        return float("nan")
    points = []
    for thresh in sorted(set(scores), reverse=True):
        tp = fp = 0
        for s, y in zip(scores, targets):
            if s >= thresh:
                if y:
                    tp += 1
                else:
                    fp += 1
        points.append((tp / total_pos, tp / (tp + fp)))
    ap = 0.0
    prev_recall = 0.0
    for recall, precision in points:
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def masked_mean(x, mask):
    """The padded reference of a temporal mean: the (..., D) float32 mean of
    the rows of (..., T, D) ``x`` where the (..., T) ``mask`` holds, summed in
    float64 in row order, or zeros where none holds."""
    valid = np.asarray(mask, dtype=bool)[..., None]
    total = np.add.reduce(x, axis=-2, dtype=np.float64, where=valid)
    return (total / np.maximum(valid.sum(axis=-2), 1)).astype(np.float32)


def batched_map(model, records):
    """Mean AP at threshold 0.5 of ``model`` over ``records``, scored 64 at a
    time in training-length batches."""
    scores, targets = [], []
    for lo in range(0, len(records), 64):
        chunk = records[lo:lo + 64]
        batch = make_batch(chunk, model.config.modalities)
        scores.append(predict_scores(model, batch))
        targets.append(batch.labels)
    return compute_report(np.vstack(scores), np.vstack(targets), 0.5).mean_ap
