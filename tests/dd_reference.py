"""The reference for `newton._facets`: the double description that
tests every pair of rays against every generator and every third ray,
as it ran before the rays were classified once per generator."""

from math import gcd
from operator import mul
from typing import Sequence

from nilcalc.newton import _integer_rows


def reference_facets(generators: Sequence, n: int):
    """The facets <w, x> >= b that are not coordinate hyperplanes of
    conv(generators) + R_+^n, as sorted (w, b) pairs of coprime ints."""
    rows, scale = _integer_rows(generators)
    axes = (1 << n) - 1
    rays = [(tuple(int(j == i) for j in range(n)) + (-rows[0][i],),
             axes ^ (1 << i) | 1 << n) for i in range(n)]
    rays.append(((0,) * n + (1,), axes))
    for k, row in enumerate(rows[1:], start=n + 1):
        values = [sum(map(mul, row, r)) + r[n] for r, _ in rays]
        kept = [(r, z | (1 << k) if v == 0 else z)
                for (r, z), v in zip(rays, values) if v >= 0]
        for (p, zp), vp in zip(rays, values):
            if vp <= 0:
                continue
            for (q, zq), vq in zip(rays, values):
                if vq >= 0:
                    continue
                common = zp & zq
                if common.bit_count() < n - 1 or any(
                        z & common == common for r, z in rays
                        if r is not p and r is not q):
                    continue
                ray = [vp * b - vq * a for a, b in zip(p, q)]
                g = gcd(*ray)
                kept.append((tuple(v // g for v in ray), common | 1 << k))
        rays = kept
    facets = set()
    for r, _ in rays:
        if r[n] < 0:
            ints = [scale * v for v in r[:n]] + [-r[n]]
            g = gcd(*ints)
            facets.add((tuple(v // g for v in ints[:n]), ints[n] // g))
    return tuple(sorted(facets))
