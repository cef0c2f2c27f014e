"""Numerical convergence oracles for the exponential integrals.

Everything here is floating point and everything exact lives elsewhere;
the oracle is an independent cross-check, never an authority.  All
three integrals are truncated to a growing schedule of boxes and the
verdict is read off the increments between consecutive truncations:

* geometric decay of the increments (ratio below
  convergence_ratio_threshold on every step) reads as Converges,
* sustained growth (ratio above divergence_growth_threshold on every
  step) reads as Diverges,
* shrinking increments with an algebraic ratio (every ratio below
  algebraic_decay_threshold and a negligible final increment) also
  read as Converges -- this is the regime of the 1/t_1^2-weighted
  integrals, whose tails decay like 1/T rather than exponentially,
* anything else is Inconclusive.

The orthant and weighted integrals use the trapezoid rule on a tensor
grid of quadrature_points_per_axis nodes per axis and shell box (graded
towards 0 on axes starting there).  For a minimum of linear forms the
integrand is the exponential of a minimum of affine pieces, so the same
sum is taken in closed form along the last axis, piece by piece, from
per-piece partial sums (`_envelope_box`); power products are summed
over the grid itself (`_grid_box`), which is also the tests' reference.

Estimates are deterministic functions of the config (including the
Monte Carlo routine, whose streams are keyed by seed and shell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .lp import InputError, frac, fvec
from .toric import ConcaveToricFunction, PiecewiseLinearMin, PowerProduct

CONVERGES = "Converges"
DIVERGES = "Diverges"
INCONCLUSIVE = "Inconclusive"

PLAIN = "plain"
POINCARE_AXIS_1 = "poincare_axis_1"

_GRID_CHUNK = 1 << 22  # max tensor-grid points evaluated at once
_ENVELOPE_CHUNK = 1 << 19  # max (piece, grid row) pairs evaluated at once


@dataclass(frozen=True)
class OracleConfig:
    truncation_schedule: Tuple[float, ...] = (10.0, 20.0, 40.0, 80.0)
    quadrature_points_per_axis: int = 512
    mc_samples: int = 1_000_000
    seed: int = 0
    convergence_ratio_threshold: float = 0.25
    divergence_growth_threshold: float = 0.9
    algebraic_decay_threshold: float = 0.7

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
        if self.quadrature_points_per_axis < 2:
            raise InputError("need at least 2 quadrature points per axis")
        if self.mc_samples <= 0:
            raise InputError("mc_samples must be positive")
        for name in ("convergence_ratio_threshold",
                     "divergence_growth_threshold",
                     "algebraic_decay_threshold"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise InputError(f"{name} must lie in (0, 1)")


@dataclass(frozen=True)
class ConvergenceVerdict:
    verdict: str
    partial_values: Tuple[Tuple[float, float], ...]
    evidence: Dict[str, object] = field(default_factory=dict)


def _judge(schedule: Sequence[float], increments: Sequence[float],
           cfg: OracleConfig) -> ConvergenceVerdict:
    partials = []
    total = 0.0
    for t, inc in zip(schedule, increments):
        total += inc
        partials.append((t, total))
    ratios = []
    for prev, cur in zip(increments, increments[1:]):
        if prev > 0.0:
            ratios.append(cur / prev)
        else:
            ratios.append(0.0 if cur == 0.0 else float("inf"))
    evidence: Dict[str, object] = {"increments": tuple(increments),
                                   "ratios": tuple(ratios)}
    grow = cfg.divergence_growth_threshold
    if all(r <= cfg.convergence_ratio_threshold for r in ratios):
        verdict, rule = CONVERGES, "geometric decay"
    elif all(r >= grow for r in ratios) or (
            # the first increment is the base box, not a tail shell; a
            # tail that stopped shrinking still reads as divergence
            len(ratios) >= 2 and all(r >= grow for r in ratios[1:])):
        verdict, rule = DIVERGES, "sustained growth"
    elif (all(r <= cfg.algebraic_decay_threshold for r in ratios)
          and total > 0.0 and increments[-1] <= 0.1 * total):
        verdict, rule = CONVERGES, "algebraic decay"
    else:
        verdict, rule = INCONCLUSIVE, "mixed increment behaviour"
    evidence["rule"] = rule
    return ConvergenceVerdict(verdict, tuple(partials), evidence)


def _shell_boxes(lows: Sequence[float], prev: float, cur: float
                 ) -> List[List[Tuple[float, float]]]:
    """Sub-boxes of prod[low_i, cur] \\ prod[low_i, prev] (prev=None: all)."""
    n = len(lows)
    if prev is None:
        return [[(lows[i], cur) for i in range(n)]]
    boxes = []
    for mask in range(1, 1 << n):
        box = []
        ok = True
        for i in range(n):
            if mask >> i & 1:
                if prev <= lows[i]:
                    ok = False
                    break
                box.append((prev, cur))
            else:
                box.append((lows[i], min(prev, cur)))
        if ok:
            boxes.append(box)
    return boxes


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
              weight_axis0: bool) -> float:
    """Integral of e^{2(g - <A, x>)} (optionally / x_1^2) over the box,
    by the tensor trapezoid rule."""
    n = len(box)
    axes = []
    for i, (a, b) in enumerate(box):
        grade = a == 0.0
        x, w = _axis_grid(a, b, m, grade)
        shape = [1] * n
        shape[i] = m
        axes.append((x.reshape(shape), w.reshape(shape)))
    # chunk along axis 0 to bound memory for n = 3
    x0, w0 = axes[0]
    rest = axes[1:]
    per_row = m ** (n - 1)
    rows_per_chunk = max(1, _GRID_CHUNK // max(per_row, 1))
    total = 0.0
    for start in range(0, m, rows_per_chunk):
        stop = min(m, start + rows_per_chunk)
        coords = [x0[start:stop]] + [x for x, _ in rest]
        gv = _g_values(g, coords)
        expo = 2.0 * gv
        for Ai, (x, _) in zip(A, [(x0[start:stop], None)] + rest):
            expo = expo - 2.0 * Ai * x
        vals = np.exp(np.minimum(expo, 700.0))
        if weight_axis0:
            vals = vals / np.square(x0[start:stop])
        wprod = w0[start:stop]
        for _, w in rest:
            wprod = wprod * w
        total += float(np.sum(vals * wprod))
    return total


def _envelope_box(g: PiecewiseLinearMin, A: Tuple[float, ...],
                  box: Sequence[Tuple[float, float]], m: int,
                  weight_axis0: bool) -> float:
    """_grid_box for a minimum of affine pieces: the same nodes, weights
    and clamp, summed in closed form along the last axis.

    The exponent min(2(g - <A, x>), 700) is the minimum of the pieces
    c_k + <a_k, x>, the clamp being the piece (a = 0, c = 700).  On each
    row of the grid (a node of the other axes) the pieces are lines in
    the last coordinate with the same slopes a_k, so every piece is
    active on one run of consecutive nodes, and its share of the row is
    e^{c_row,k} times a difference of partial sums of w_j e^{a_k x_j},
    which do not depend on the row.
    """
    n = len(box)
    axes = [_axis_grid(a, b, m, a == 0.0) for a, b in box]
    if weight_axis0:
        x0, w0 = axes[0]
        axes[0] = (x0, w0 / np.square(x0))
    slopes = np.array([[2.0 * (float(s) - Ai) for s, Ai in zip(slope, A)]
                       for slope, _ in g.pieces] + [[0.0] * n])
    consts = np.array([2.0 * float(off) for _, off in g.pieces] + [700.0])
    # a piece that stays above another piece's maximum on the box is
    # never the least one there (this drops the clamp on most boxes)
    ends = slopes[:, :, None] * np.array(box)
    least = consts + ends.min(axis=2).sum(axis=1)
    most = consts + ends.max(axis=2).sum(axis=1)
    keep = least <= most.min()
    slopes, consts = slopes[keep], consts[keep]
    # by decreasing last slope, the active piece never moves back along x
    order = np.argsort(-slopes[:, -1], kind="stable")
    slopes, consts = slopes[order], consts[order]
    K = len(consts)
    x, w = axes[-1]
    a = slopes[:, -1]
    # log sums of w_j e^{a_k x_j} over nodes j < i (head) and j >= i (tail)
    terms = np.log(w) + np.multiply.outer(a, x)
    head = np.full((K, m + 1), -np.inf)
    tail = np.full((K, m + 1), -np.inf)
    head[:, 1:] = np.logaddexp.accumulate(terms, axis=1)
    tail[:, :-1] = np.logaddexp.accumulate(terms[:, ::-1], axis=1)[:, ::-1]
    da = a[:, None] - a[None, :]
    inv = np.divide(1.0, da, out=np.zeros_like(da), where=da > 0)
    pieces = np.arange(K)[:, None]
    lead = axes[:-1]
    rows = max(1, _ENVELOPE_CHUNK // (K * m ** max(n - 2, 0)))
    total = 0.0
    for start in range(0, m if lead else 1, rows):
        # C[k, r]: c_k plus the other axes' terms at row r
        C = consts[:, None]
        W = np.ones(1)
        for i, (xi, wi) in enumerate(lead):
            if i == 0:
                xi, wi = xi[start:start + rows], wi[start:start + rows]
            C = (C[:, :, None] + np.multiply.outer(slopes[:, i], xi)[:, None]
                 ).reshape(K, -1)
            W = np.multiply.outer(W, wi).ravel()
        # node x goes to a piece >= k iff x > tau_k = max_{i<k} min_{j>=k}
        # of the point from which line j stays at or below line i
        tau = np.full_like(C, -np.inf)
        reach = np.full_like(C, np.inf)
        for j in range(K - 1, 0, -1):
            cross = (C[j] - C[:j]) * inv[:j, j, None]
            ties = da[:j, j] == 0
            if ties.any():
                cross[ties] = np.where(C[j] <= C[:j][ties], -np.inf, np.inf)
            np.minimum(reach[:j], cross, out=reach[:j])
            tau[j] = reach[:j].max(axis=0)
        lo = np.maximum.accumulate(np.searchsorted(x, tau, "right"), axis=0)
        hi = np.concatenate([lo[1:], np.full((1, lo.shape[1]), m)])
        # subtract the smaller of the two partial sums, so that the
        # difference loses at most about log10(m) digits
        hl, th = head[pieces, lo], tail[pieces, hi]
        small = np.minimum(hl, th)
        big = np.where(hl <= th, head[pieces, hi], tail[pieces, lo])
        with np.errstate(divide="ignore", invalid="ignore"):
            run = np.where(hi > lo, big + np.log(-np.expm1(small - big)),
                           -np.inf)
        total += float(W @ np.exp(C + run).sum(axis=0))
    return total


def _quadrature_box(g: ConcaveToricFunction, A: Tuple[float, ...],
                    box: Sequence[Tuple[float, float]], m: int,
                    weight_axis0: bool) -> float:
    """Integral of e^{2(g - <A, x>)} (optionally / x_1^2) over the box."""
    if isinstance(g, PiecewiseLinearMin):
        return _envelope_box(g, A, box, m, weight_axis0)
    return _grid_box(g, A, box, m, weight_axis0)


def _validate_shift(g: ConcaveToricFunction, A: Sequence) -> Tuple[float, ...]:
    Av = fvec(A)
    if len(Av) != g.dimension:
        raise InputError("dimension mismatch between g and A")
    if any(a < 0 for a in Av):
        raise InputError("A must be componentwise >= 0")
    return tuple(float(a) for a in Av)


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
    # a shell beyond float range adds inf, which reads as growth
    with np.errstate(over="ignore"):
        increments = [sum(_quadrature_box(g, A, box, m, weight_axis0)
                          for box in boxes)
                      for boxes in _shells(lows, cfg.truncation_schedule)]
    return _judge(cfg.truncation_schedule, increments, cfg)


def orthant_exp_integral(g: ConcaveToricFunction, A: Sequence,
                         cfg: OracleConfig = OracleConfig()
                         ) -> ConvergenceVerdict:
    """Verdict for the integral of e^{2(g(x) - <A, x>)} over the orthant."""
    Af = _validate_shift(g, A)
    return _quadrature_verdict(g, Af, [0.0] * g.dimension, cfg,
                               weight_axis0=False)


def adjoint_weighted_integral(g: ConcaveToricFunction, A: Sequence, eps,
                              cfg: OracleConfig = OracleConfig()
                              ) -> ConvergenceVerdict:
    """Verdict for the integral of e^{2((1+eps)g(t) - <A, t>)} / t_1^2
    over [1, inf) x orthant."""
    Af = _validate_shift(g, A)
    ef = frac(eps)
    if ef < 0:
        raise InputError("eps must be >= 0")
    if cfg.truncation_schedule[0] <= 1.0:
        raise InputError("truncation schedule must exceed 1")
    lows = [1.0] + [0.0] * (g.dimension - 1)
    return _quadrature_verdict(_scale_function(g, 1 + ef), Af, lows, cfg,
                               weight_axis0=True)


def _scale_function(g: ConcaveToricFunction,
                    factor: Fraction) -> ConcaveToricFunction:
    if factor == 1:
        return g
    if isinstance(g, PiecewiseLinearMin):
        return PiecewiseLinearMin(tuple(
            (tuple(factor * s for s in slope), factor * off)
            for slope, off in g.pieces))
    # (1+eps) * k * prod x^a is again a power product with the same exponents
    return PowerProduct(g.scale * factor, g.exponents)


def polydisk_mc(g: ConcaveToricFunction, beta: Sequence, weight: str = PLAIN,
                cfg: OracleConfig = OracleConfig()) -> ConvergenceVerdict:
    """Monte Carlo verdict for the polydisk membership integral.

    In logarithmic polar coordinates t_i = -log|z_i| the integral of
    |z^beta|^2 e^{2 g(t)} over the punctured polydisk of radius 1/2 is
    proportional to the integral of e^{2 g(t) - (2 beta + 2) . t} over
    [log 2, inf)^n; the poincare_axis_1 weight multiplies the integrand
    by e^{2 t_1} / t_1^2.  Sampling is uniform in t (log-uniform in the
    radii), with a stream per shell box keyed by the seed.
    """
    bv = fvec(beta)
    if len(bv) != g.dimension:
        raise InputError("dimension mismatch between g and beta")
    if any(b < 0 or b.denominator != 1 for b in bv):
        raise InputError("beta must be a natural exponent vector")
    if weight not in (PLAIN, POINCARE_AXIS_1):
        raise InputError(f"unknown weight {weight!r}")
    lo = float(np.log(2.0))
    if cfg.truncation_schedule[0] <= lo:
        raise InputError("truncation schedule must exceed log 2")
    shells = _shells([lo] * g.dimension, cfg.truncation_schedule)
    samples_per_box = max(1, cfg.mc_samples // sum(map(len, shells)))
    coeff = tuple(2.0 * float(b) + 2.0 for b in bv)
    increments = []
    for si, boxes in enumerate(shells):
        inc = 0.0
        for bi, box in enumerate(boxes):
            rng = np.random.default_rng([cfg.seed & 0xFFFFFFFF, si, bi])
            volume = 1.0
            pts = []
            for a, b in box:
                volume *= b - a
                pts.append(rng.uniform(a, b, samples_per_box))
            gv = _g_values(g, [p for p in pts])
            expo = 2.0 * gv
            for c, p in zip(coeff, pts):
                expo = expo - c * p
            if weight == POINCARE_AXIS_1:
                expo = expo + 2.0 * pts[0]
                vals = np.exp(np.minimum(expo, 700.0)) / np.square(pts[0])
            else:
                vals = np.exp(np.minimum(expo, 700.0))
            inc += volume * float(np.mean(vals))
        increments.append(inc)
    return _judge(cfg.truncation_schedule, increments, cfg)


def radial_power_integral(k, beta: int,
                          cfg: OracleConfig = OracleConfig()
                          ) -> ConvergenceVerdict:
    """One-variable membership integral for the weight k * t.

    In t = -log r the integral of r^{2 beta + 1} r^{-2k} dr over
    (0, 1/2] becomes the integral of e^{(2k - 2 beta - 2) t} over
    [log 2, inf), so x^beta is a member exactly when beta + 1 > k.
    """
    kf = float(Fraction(k))
    rate = 2.0 * kf - 2.0 * float(beta) - 2.0
    lo = float(np.log(2.0))
    increments = []
    prev = lo
    for t in cfg.truncation_schedule:
        x, w = _axis_grid(prev, t, cfg.quadrature_points_per_axis, False)
        increments.append(float(np.sum(
            np.exp(np.minimum(rate * x, 700.0)) * w)))
        prev = t
    return _judge(cfg.truncation_schedule, increments, cfg)
