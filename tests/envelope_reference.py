"""The reference for `oracle._log_partial_sums`: the last-axis log
partial sums as `oracle._Envelope` took them before they became scaled
cumulative sums, one `np.logaddexp.accumulate` per direction."""

import numpy as np


def reference_partial_sums(x, lw, a):
    """head[k, i] = log sum_{j < i} w_j e^{a_k x_j} and tail[k, i] =
    log sum_{j >= i} w_j e^{a_k x_j} for i = 0..m, where lw = log w."""
    terms = lw + np.multiply.outer(a, x)
    head = np.full((len(a), len(x) + 1), -np.inf)
    tail = np.full((len(a), len(x) + 1), -np.inf)
    head[:, 1:] = np.logaddexp.accumulate(terms, axis=1)
    tail[:, :-1] = np.logaddexp.accumulate(terms[:, ::-1], axis=1)[:, ::-1]
    return head, tail
