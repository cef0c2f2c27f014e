"""Numerical convergence oracles for the exponential integrals.

Everything here is floating point and everything exact lives elsewhere;
the oracle is an independent cross-check, never an authority.  Every
integral is truncated to a growing schedule of boxes and the verdict is
read off the increments between consecutive truncations:

* geometric decay of the increments (ratio below
  CONVERGENCE_RATIO_THRESHOLD on every step) reads as Converges,
* sustained growth (ratio above DIVERGENCE_GROWTH_THRESHOLD on every
  step) reads as Diverges,
* shrinking increments with an algebraic ratio (every ratio below
  ALGEBRAIC_DECAY_THRESHOLD and a negligible final increment) also
  read as Converges -- this is the regime of the 1/t_1^2-weighted
  integrals, whose tails decay like 1/T rather than exponentially,
* anything else is Inconclusive, and so are a NaN increment, decaying
  increments whose total is infinite, and a grid too coarse for the
  integrand (a node step changing the exponent by more than 700).

Every oracle -- orthant, weighted, polydisk and radial (the last two
being integrals over [log 2, inf)^n, the radial one in one variable) --
is the same shell quadrature: the trapezoid rule on a tensor grid of
quadrature_points_per_axis nodes per axis and shell box, graded towards
the region's low end (0, 1 or log 2) on every box side starting there.  The
dimension decides how the grid is summed: in one variable, and for power
products, over the grid itself (`_grid_box`, also the tests' reference);
in more, a minimum of linear forms in closed form along the last axis
from per-piece partial sums (`_Envelope`), built once per shell as
cumulative sums scaled block by block.

Estimates are deterministic functions of the integrand and the config.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import ClassVar, Dict, List, Sequence, Tuple

import numpy as np

from .lp import InputError, frac, fvec, numeral, positive
from .toric import (CONVERGES, DIVERGES, INCONCLUSIVE, PLAIN,
                    POINCARE_AXIS_1, ConcaveToricFunction,
                    PiecewiseLinearMin, PowerProduct, scaled)

QUADRATURE_POINTS_LIMIT = 5120  # ten times the default points per axis

# bounds on the ratios of consecutive increments, see the module docstring
CONVERGENCE_RATIO_THRESHOLD = 0.25
DIVERGENCE_GROWTH_THRESHOLD = 0.9
ALGEBRAIC_DECAY_THRESHOLD = 0.7

# tensor-grid points evaluated at once (at least one row of axis 0): few
# enough that the temporaries of a chunk stay in cache
_GRID_CHUNK = 1 << 16
# (piece, grid row) pairs of a shell evaluated at once: few enough that
# the temporaries of a chunk stay in cache.  The lead-axis terms are
# built once per shell; a chunk builds its rows' exponents, crossing
# points and runs (see `_Envelope`)
_ENVELOPE_CHUNK = 1 << 13
# the terms summed in one block of `_log_cumsum` span less than this, so
# that their exponentials relative to the block's largest stay above e^-600
_BLOCK_SPAN = 600.0


@dataclass(frozen=True)
class OracleConfig:
    truncation_schedule: Tuple[float, ...] = (10.0, 20.0, 40.0, 80.0)
    quadrature_points_per_axis: int = 512
    # not a setting: perfbench's tracer reads it (ROADMAP item 1)
    mc_samples: ClassVar[int] = 0

    def __post_init__(self):
        sched = tuple(float(t) for t in self.truncation_schedule)
        object.__setattr__(self, "truncation_schedule", sched)
        if len(sched) < 3:
            raise InputError("truncation schedule needs at least 3 boxes")
        if not all(math.isfinite(t) for t in sched):
            raise InputError("truncation schedule must be finite")
        if any(b <= a for a, b in zip(sched, sched[1:])) or sched[0] <= 0:
            raise InputError("truncation schedule must be positive and "
                             "strictly increasing")
        if not 2 <= self.quadrature_points_per_axis <= \
                QUADRATURE_POINTS_LIMIT:
            raise InputError(f"quadrature_points_per_axis must lie in "
                             f"[2, {QUADRATURE_POINTS_LIMIT}]")


@dataclass(frozen=True)
class ConvergenceVerdict:
    verdict: str
    partial_values: Tuple[Tuple[float, float], ...]
    evidence: Dict[str, object] = field(default_factory=dict)


def _judge(schedule: Sequence[float],
           increments: Sequence[float]) -> ConvergenceVerdict:
    partials = tuple(zip(schedule, itertools.accumulate(increments)))
    total = partials[-1][1]
    ratios = []
    for prev, cur in zip(increments, increments[1:]):
        if cur == math.inf:
            # growth beyond float range, also after an infinite increment
            # (inf/inf would be NaN, which no threshold accepts)
            ratios.append(math.inf)
        elif prev > 0.0:
            ratios.append(cur / prev)
        else:
            ratios.append(0.0 if cur == 0.0 else float("inf"))
    evidence: Dict[str, object] = {"increments": tuple(increments),
                                   "ratios": tuple(ratios)}
    grow = DIVERGENCE_GROWTH_THRESHOLD
    if any(math.isnan(inc) for inc in increments):
        verdict, rule = INCONCLUSIVE, "NaN increment"
    elif all(r <= CONVERGENCE_RATIO_THRESHOLD for r in ratios):
        verdict, rule = CONVERGES, "geometric decay"
    elif all(r >= grow for r in ratios[1:]):
        # the first increment is the base box, not a tail shell; a tail
        # that stopped shrinking still reads as divergence (a schedule
        # has at least 3 boxes, so there is a tail ratio)
        verdict, rule = DIVERGES, "sustained growth"
    elif (all(r <= ALGEBRAIC_DECAY_THRESHOLD for r in ratios)
          and total > 0.0 and increments[-1] <= 0.1 * total):
        verdict, rule = CONVERGES, "algebraic decay"
    else:
        verdict, rule = INCONCLUSIVE, "mixed increment behaviour"
    if verdict == CONVERGES and total == math.inf:
        verdict, rule = INCONCLUSIVE, "decay to an infinite total"
    evidence["rule"] = rule
    return ConvergenceVerdict(verdict, partials, evidence)


def _shell_boxes(lows: Sequence[float], prev: float, cur: float
                 ) -> List[List[Tuple[float, float]]]:
    """Sub-boxes of prod[low_i, cur] \\ prod[low_i, prev] (prev=None: all)."""
    n = len(lows)
    if prev is None:
        return [[(lows[i], cur) for i in range(n)]]
    # the schedule starts above every low and increases, so
    # low_i < prev < cur: one box per non-empty set of axes beyond prev
    return [[(prev, cur) if mask >> i & 1 else (lows[i], prev)
             for i in range(n)] for mask in range(1, 1 << n)]


def _axis_grid(a: float, b: float, m: int,
               grade_at_start: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes and weights on [a, b], optionally clustered at a."""
    if grade_at_start:
        u = np.linspace(0.0, 1.0, m)
        x = a + (b - a) * u * u
    else:
        x = np.linspace(a, b, m)
    w = np.empty(m)
    w[0] = (x[1] - x[0]) / 2
    w[-1] = (x[-1] - x[-2]) / 2
    w[1:-1] = (x[2:] - x[:-2]) / 2
    return x, w


def _g_values(g: ConcaveToricFunction, coords: Sequence[np.ndarray]):
    """g evaluated on broadcast coordinate arrays."""
    if isinstance(g, PiecewiseLinearMin):
        vals = None
        for slope, offset in g.pieces:
            piece = float(offset)
            for s, c in zip(slope, coords):
                if s:
                    piece = piece + float(s) * c
            vals = piece if vals is None else np.minimum(vals, piece)
        return vals
    assert isinstance(g, PowerProduct)
    out = None
    for a, c in zip(g.exponents, coords):
        if a > 0:
            term = np.power(np.maximum(c, 0.0), float(a))
            out = term if out is None else out * term
    if out is None:
        return float(g.scale)
    return float(g.scale) * out


def _grid_box(g: ConcaveToricFunction, A: Tuple[float, ...],
              box: Sequence[Tuple[float, float]], m: int,
              weight_axis0: bool, lows: Sequence[float]) -> float:
    """Integral of e^{2(g - <A, x>)} (optionally / x_1^2) over the box,
    by the tensor trapezoid rule, graded on the axes starting at lows."""
    n = len(box)
    axes = []
    for i, ((a, b), low) in enumerate(zip(box, lows)):
        shape = [1] * n
        shape[i] = m
        axes.append([v.reshape(shape) for v in _axis_grid(a, b, m, a == low)])
    # chunk along axis 0
    rows = max(1, _GRID_CHUNK // m ** (n - 1))
    total = 0.0
    for start in range(0, m, rows):
        xs = [axes[0][0][start:start + rows]] + [x for x, _ in axes[1:]]
        expo = 2.0 * _g_values(g, xs)
        for Ai, x in zip(A, xs):
            expo = expo - 2.0 * Ai * x
        vals = np.exp(np.minimum(expo, 700.0, out=expo), out=expo)
        if weight_axis0:
            vals = vals / np.square(xs[0])
        wprod = axes[0][1][start:start + rows]
        for _, w in axes[1:]:
            wprod = wprod * w
        total += float(np.sum(vals * wprod))
    return total


def _blocks(x: np.ndarray, lw_span: float, slope: float) -> List[int]:
    """Cuts 0 = c_0 < c_1 < ... < c_B = m of the nodes x into blocks on
    which the terms lw_j + a x_j span less than _BLOCK_SPAN for every
    |a| <= slope, lw_span being the span of the lw_j."""
    room = _BLOCK_SPAN - lw_span
    if not room > 0.0:  # the weights alone span too much: a node per block
        return list(range(len(x) + 1))
    reach = room / slope if slope > 0.0 else math.inf
    cuts = [0]
    while cuts[-1] < len(x):
        s = cuts[-1]
        cuts.append(max(s + 1, int(np.searchsorted(x, x[s] + reach))))
    return cuts


def _log_cumsum(terms: np.ndarray, cuts: Sequence[int],
                out: np.ndarray) -> None:
    """out[k, i] = log sum_{j <= i} e^{terms[k, j]}, where terms and out
    may be reversed views.

    Inside a block of `_blocks` the terms of a row lie within _BLOCK_SPAN
    of their maximum ref, so the cumulative sum of e^{terms - ref} neither
    overflows nor underflows.  Each later block is chained onto the log P
    of the earlier blocks' total: with R = max(ref, P), out = R +
    log(local e^{ref - R} + e^{P - R}).
    """
    total = None  # P
    for s, e in zip(cuts, cuts[1:]):
        block = terms[:, s:e]
        # finite also on a row of zero weights, whose log is -inf
        ref = block.max(axis=1, keepdims=True, initial=np.finfo(float).min)
        local = np.subtract(block, ref)
        np.exp(local, out=local)
        np.cumsum(local, axis=1, out=local)
        # the first block has no P (it would be -inf, which leaves
        # out = ref + log(local) as it stands)
        if total is not None:
            top = np.maximum(ref, total)
            local *= np.exp(ref - top)
            local += np.exp(total - top)
            ref = top
        np.log(local, out=local)
        np.add(local, ref, out=out[:, s:e])
        total = out[:, e - 1:e]


def _log_partial_sums(x: np.ndarray, lw: np.ndarray, a: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """head[k, i] = log sum_{j < i} w_j e^{a_k x_j} and tail[k, i] =
    log sum_{j >= i} w_j e^{a_k x_j} for i = 0..m, where lw = log w."""
    m = len(x)
    terms = lw + np.multiply.outer(a, x)
    cuts = _blocks(x, float(lw.max()) - float(lw.min()),
                   float(np.abs(a).max()))
    head = np.empty((len(a), m + 1))
    tail = np.empty((len(a), m + 1))
    head[:, 0] = tail[:, m] = -np.inf
    _log_cumsum(terms, cuts, head[:, 1:])
    _log_cumsum(terms[:, ::-1], [m - c for c in reversed(cuts)],
                tail[:, -2::-1])
    return head, tail


class _Envelope:
    """_grid_box for a minimum of affine pieces in n >= 2 variables: the
    same nodes, weights and clamp, summed in closed form along the last axis.

    The exponent min(2(g - <A, x>), 700) is the minimum of the pieces
    c_k + <a_k, x>, the clamp being the piece (a = 0, c = 700).  On each
    row of the grid (a node of the other axes) the pieces are lines in
    the last coordinate with the same slopes a_k, so every piece is
    active on one run of consecutive nodes, and its share of the row is
    e^{c_row,k} times a difference of partial sums of w_j e^{a_k x_j},
    which do not depend on the row.  The partial sums are scaled
    cumulative sums (`_log_cumsum`), and only the (piece, row) pairs
    whose run is not empty reach log, expm1 and exp.  A shell is summed
    in one pass: every axis runs over the nodes of [low_i, prev] and then
    of [prev, cur], each with its own weights, and a row inside the inner
    box starts its last-axis run at the first node beyond prev.  One
    instance builds the axis grids once per interval for all the shells
    of a call, graded on the axes starting at lows.

    Once per shell: the pruned pieces, the partial sums, the pieces tied
    on the last slope, and on the lead axes c_k + a_k0 x_0 and each
    a_ki x_i (i >= 1) as (piece, node) arrays.  Once per chunk of rows
    (`_ENVELOPE_CHUNK`): each row's c_row,k (a slice of the first plus
    one broadcast add per further lead axis), weight and first node, the
    crossing points, searched in K - 1 rows (piece 0 starts at the row's
    first node), and the flat gathers of the non-empty runs.
    """

    def __init__(self, g: PiecewiseLinearMin, A: Tuple[float, ...], m: int,
                 weight_axis0: bool, lows: Sequence[float]):
        n = len(A)
        # the pieces c_k + <a_k, x> of 2(g - <A, x>) and the clamp (0, 700),
        # by decreasing last slope: the active piece never moves back
        # along the last axis
        self.rows = sorted(
            [([2.0 * (float(s) - Ai) for s, Ai in zip(slope, A)],
              2.0 * float(off)) for slope, off in g.pieces]
            + [([0.0] * n, 700.0)], key=lambda row: -row[0][-1])
        self.n, self.m, self.weight_axis0, self.lows = n, m, weight_axis0, lows
        self.grids: Dict[tuple, tuple] = {}

    def _grid(self, i: int, a: float, b: float) -> tuple:
        """Nodes, weights (over x^2 on a weighted axis 0) and log weights."""
        key = (i == 0 and self.weight_axis0, a == self.lows[i], a, b)
        grid = self.grids.get(key)
        if grid is None:
            x, w = _axis_grid(a, b, self.m, key[1])
            if key[0]:
                w = w / np.square(x)
            grid = self.grids[key] = x, w, np.log(w)
        return grid

    def _axis(self, i: int, prev, cur: float) -> tuple:
        """Axis i's grid on [low_i, cur], or on [low_i, prev] then
        [prev, cur] (node prev twice, with each interval's weight)."""
        if prev is None:
            return self._grid(i, self.lows[i], cur)
        return tuple(map(np.concatenate, zip(self._grid(i, self.lows[i], prev),
                                             self._grid(i, prev, cur))))

    def shell(self, prev, cur: float) -> float:
        """The integral over prod[low_i, cur] \\ prod[low_i, prev]
        (prev=None: over all of prod[low_i, cur])."""
        n = self.n
        # a piece that stays above another piece's maximum on the region
        # is never the least one there (this drops the clamp on most shells)
        least, most = [], []
        for slope, c in self.rows:
            ends = [(s * low, s * cur) for s, low in zip(slope, self.lows)]
            least.append(c + sum(min(e) for e in ends))
            most.append(c + sum(max(e) for e in ends))
        top = min(most)
        keep = [row for row, v in zip(self.rows, least) if v <= top]
        slopes = np.array([slope for slope, _ in keep])
        consts = np.array([c for _, c in keep])
        K = len(keep)
        a = slopes[:, -1]
        da = a[:, None] - a[None, :]
        inv = np.divide(1.0, da, out=np.zeros_like(da), where=da > 0)
        # the pieces i < j with the same last slope as piece j
        ties = [np.flatnonzero(da[:j, j] == 0) for j in range(K)]
        axes = [self._axis(i, prev, cur) for i in range(n)]
        x, _, lw = axes[-1]
        L = len(x)
        head, tail = (s.ravel() for s in _log_partial_sums(x, lw, a))
        # a row inside the inner box runs from node `skip` of the last axis
        skip = 0 if prev is None else self.m
        begin_at = np.where(np.arange(L) < skip, skip, 0)
        # the lead axes' terms c_k + a_k0 x_0 and a_ki x_i (i >= 1); a chunk
        # slices the first and adds the others
        C0 = consts[:, None] + np.multiply.outer(slopes[:, 0], axes[0][0])
        further = [(np.multiply.outer(slopes[:, i], axes[i][0]), axes[i][1])
                   for i in range(1, n - 1)]
        rows = max(1, _ENVELOPE_CHUNK // (K * L ** (n - 2)))
        total = 0.0
        for start in range(0, C0.shape[1], rows):
            # C[k, r]: c_k plus the lead axes' terms at row r; W[r] its
            # weight and begin[r] its first last-axis node
            part = slice(start, start + rows)
            C, W, begin = C0[:, part], axes[0][1][part], begin_at[part]
            for S, wi in further:
                C = (C[:, :, None] + S[:, None]).reshape(K, -1)
                W = np.multiply.outer(W, wi).ravel()
                begin = np.minimum.outer(begin, begin_at).ravel()
            R = C.shape[1]
            # node x goes to a piece >= k iff x > tau_{k-1} = max_{i<k}
            # min_{j>=k} of the point from which line j stays at or below
            # line i (piece 0 starts at begin)
            tau = np.empty((K - 1, R))
            reach = np.full((K - 1, R), np.inf)
            for j in range(K - 1, 0, -1):
                cross = (C[j] - C[:j]) * inv[:j, j, None]
                if len(ties[j]):
                    cross[ties[j]] = np.where(C[j] <= C[ties[j]], -np.inf,
                                              np.inf)
                np.minimum(reach[:j], cross, out=reach[:j])
                reach[:j].max(axis=0, out=tau[j - 1])
            lo = np.empty((K, R), dtype=np.intp)
            lo[0] = begin
            lo[1:] = np.searchsorted(x, tau, "right")
            for k in range(1, K):
                np.maximum(lo[k], lo[k - 1], out=lo[k])
            hi = np.empty_like(lo)
            hi[:-1] = lo[1:]
            hi[-1] = L
            # the (piece, row) pairs with a non-empty run, as flat indices
            # and as indices into the flattened partial sums; subtract the
            # smaller of the two partial sums, so that the difference
            # loses at most about log10(m) digits
            idx = np.flatnonzero(hi > lo)
            k, r = np.divmod(idx, R)
            starts = k * (L + 1)
            lo, hi = starts + lo.ravel()[idx], starts + hi.ravel()[idx]
            hl, th = head[lo], tail[hi]
            first = hl <= th
            small = np.where(first, hl, th)
            big = np.where(first, head[hi], tail[lo])
            with np.errstate(divide="ignore", invalid="ignore"):
                run = big + np.log(-np.expm1(small - big))
            run += C.ravel()[idx]
            total += float(W[r] @ np.exp(run, out=run))
        return total


def _validate_shift(g: ConcaveToricFunction, A: Sequence
                    ) -> Tuple[Fraction, ...]:
    Av = fvec(A)
    if len(Av) != g.dimension:
        raise InputError("dimension mismatch between g and A")
    if any(a < 0 for a in Av):
        raise InputError("A must be componentwise >= 0")
    return Av


def _floats(g: ConcaveToricFunction, values: Sequence) -> Tuple[float, ...]:
    """The values as floats; InputError where one of them or of g's
    coefficients is beyond float range, so that float() overflows."""
    coefficients = ([c for slope, off in g.pieces for c in (*slope, off)]
                    if isinstance(g, PiecewiseLinearMin) else [g.scale])
    for v in (*values, *coefficients):
        try:
            float(v)
        except OverflowError:
            raise InputError(f"{numeral(v)} is beyond float range") from None
    return tuple(float(v) for v in values)


def _widest_step(a: float, b: float, m: int, graded: bool) -> float:
    """The widest step between the `_axis_grid` nodes of [a, b], whose
    last step is the widest where they are graded towards a."""
    step = (b - a) / (m - 1)
    return step * (2 * m - 3) / (m - 1) if graded else step


def _shells(lows: Sequence[float], schedule: Sequence[float]
            ) -> List[List[List[Tuple[float, float]]]]:
    """The boxes of each shell between consecutive truncations."""
    return [_shell_boxes(lows, prev, t)
            for prev, t in zip((None,) + tuple(schedule), schedule)]


def _quadrature_verdict(g: ConcaveToricFunction, A: Tuple[float, ...],
                        lows: Sequence[float], cfg: OracleConfig,
                        weight_axis0: bool) -> ConvergenceVerdict:
    """Verdict read off the quadrature of each shell of the schedule."""
    m = cfg.quadrature_points_per_axis
    schedule = cfg.truncation_schedule
    if isinstance(g, PiecewiseLinearMin) and g.dimension > 1:
        shell_integral = _Envelope(g, A, m, weight_axis0, lows).shell
    else:
        def shell_integral(prev, cur):
            return sum(_grid_box(g, A, box, m, weight_axis0, lows)
                       for box in _shell_boxes(lows, prev, cur))
    # a shell beyond float range adds inf, which reads as growth; a weight
    # below float range has the log -inf, and 0 * inf makes a NaN
    # increment, which reads as Inconclusive
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        increments = [shell_integral(prev, cur) for prev, cur
                      in zip((None,) + schedule, schedule)]
    verdict = _judge(schedule, increments)
    # the exponent's affine part, 2(s_k - A) or -2A for a power product,
    # changes by up to rates[i] per unit along axis i; where one node step
    # changes it by more than the clamp 700, the sum means nothing
    slopes = ([s for s, _ in g.pieces] if isinstance(g, PiecewiseLinearMin)
              else [(0,) * len(A)])
    rates = [max(abs(2.0 * (float(s[i]) - Ai)) for s in slopes)
             for i, Ai in enumerate(A)]
    if verdict.verdict in (CONVERGES, DIVERGES) and any(
            rate * _widest_step(a, b, m, a == low) > 700.0
            for boxes in _shells(lows, schedule) for box in boxes
            for rate, low, (a, b) in zip(rates, lows, box)):
        verdict.evidence["rule"] = "grid coarser than the integrand"
        return replace(verdict, verdict=INCONCLUSIVE)
    return verdict


def orthant_exp_integral(g: ConcaveToricFunction, A: Sequence,
                         cfg: OracleConfig = OracleConfig()
                         ) -> ConvergenceVerdict:
    """Verdict for the integral of e^{2(g(x) - <A, x>)} over the orthant."""
    Af = _floats(g, _validate_shift(g, A))
    return _quadrature_verdict(g, Af, [0.0] * g.dimension, cfg,
                               weight_axis0=False)


def adjoint_weighted_integral(g: ConcaveToricFunction, A: Sequence, eps,
                              cfg: OracleConfig = OracleConfig()
                              ) -> ConvergenceVerdict:
    """Verdict for the integral of e^{2((1+eps)g(t) - <A, t>)} / t_1^2
    over [1, inf) x orthant."""
    Av = _validate_shift(g, A)
    ef = frac(eps)
    if ef < 0:
        raise InputError("eps must be >= 0")
    if cfg.truncation_schedule[0] <= 1.0:
        raise InputError("truncation schedule must exceed 1")
    g = scaled(g, 1 + ef)
    Af = _floats(g, Av + (ef,))[:-1]
    lows = [1.0] + [0.0] * (g.dimension - 1)
    return _quadrature_verdict(g, Af, lows, cfg, weight_axis0=True)


def polydisk_mc(g: ConcaveToricFunction, beta: Sequence, weight: str = PLAIN,
                cfg: OracleConfig = OracleConfig()) -> ConvergenceVerdict:
    """Verdict for the polydisk membership integral.

    In logarithmic polar coordinates t_i = -log|z_i| the integral of
    |z^beta|^2 e^{2 g(t)} over the punctured polydisk of radius 1/2 is
    proportional to the integral of e^{2(g(t) - <A, t>)} over
    [log 2, inf)^n with A = beta + 1.  The poincare_axis_1 weight
    multiplies the integrand by e^{2 t_1} / t_1^2, that is A - e_1 and
    the 1/t_1^2 weight on axis 0.  Both are computed by the shell
    quadrature that the other oracles use.
    """
    bv = fvec(beta)
    if len(bv) != g.dimension:
        raise InputError("dimension mismatch between g and beta")
    if any(b < 0 or b.denominator != 1 for b in bv):
        raise InputError("beta must be a natural exponent vector")
    if weight not in (PLAIN, POINCARE_AXIS_1):
        raise InputError(f"unknown weight {weight!r}")
    return _polydisk(g, bv, weight == POINCARE_AXIS_1, cfg)


def _polydisk(g: ConcaveToricFunction, beta: Tuple[Fraction, ...],
              poincare: bool, cfg: OracleConfig) -> ConvergenceVerdict:
    """`polydisk_mc` past its own checks, for a natural beta.  The radial
    oracle calls this, not `polydisk_mc`, so that perfbench's tracer
    counts each call once."""
    lo = float(np.log(2.0))
    if cfg.truncation_schedule[0] <= lo:
        raise InputError("truncation schedule must exceed log 2")
    # beta itself is checked against float range, so that an error names it
    A = [b + 1.0 for b in _floats(g, beta)]
    if poincare:
        A[0] -= 1.0
    return _quadrature_verdict(g, tuple(A), [lo] * g.dimension, cfg,
                               weight_axis0=poincare)


def radial_power_integral(k, beta,
                          cfg: OracleConfig = OracleConfig()
                          ) -> ConvergenceVerdict:
    """The polydisk membership integral of the one-variable weight k * t.

    In t = -log r the integral of r^{2 beta + 1} r^{-2k} dr over
    (0, 1/2] becomes the integral of e^{2(k t - (beta + 1) t)} over
    [log 2, inf), so x^beta is a member exactly when beta + 1 > k.
    """
    kf, bf = frac(k), frac(beta)
    positive(kf, "k")
    if bf < 0 or bf.denominator != 1:
        raise InputError("beta must be a natural number")
    g = PiecewiseLinearMin((((kf,), Fraction(0)),))
    return _polydisk(g, (bf,), False, cfg)
