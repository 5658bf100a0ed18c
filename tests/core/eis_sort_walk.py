"""Pair-by-pair walk of the EIS merge sort: the closed form's test oracle.

:func:`walk_eis_sort_features` visits every pass and every pair of
runs of the EIS merge sort the way the kernel does.  It was the cost
model's feature extractor before the closed form
(:func:`repro.core.costmodel.eis_sort_features`) replaced it; it now
lives here only as the oracle the closed form is tested against.
"""

from repro.core.common import LANES


def walk_eis_sort_features(length, presort_unroll=16, merge_unroll=16):
    """Same feature vector as ``eis_sort_features``, one pair at a time."""
    padded = length + (-length) % LANES
    blocks = padded // LANES
    presort = max(blocks, 1)
    features = [1, presort, (presort - 1) // presort_unroll, 0, 0, 0, 0]
    run = LANES
    while run < padded:
        features[3] += 1
        position = 0
        while position < padded:
            end = min(position + 2 * run, padded)
            target = (end - position) // LANES
            iterations = target + 2
            features[4] += 1
            features[5] += target
            features[6] += (iterations - 1) // merge_unroll
            position = end
        run *= 2
    return features
