"""Plane projection of the integer embedding, as an upward drawing.

The d realizer axes are mapped onto d unit vectors fanned symmetrically
around vertical, equally spaced within +-spread degrees.  Every
direction has a strictly positive y component and all coordinates
strictly increase along comparable pairs, so any axis assignment yields
an upward drawing for free.  The assignment (which realizer axis goes to
which fan direction) is chosen by exhaustive search to minimize edge
crossings.  Each sweep over the edges by low y counts a permutation and
its mirror complement together and tests only pairs with overlapping
bounding boxes.  A final repair pass nudges nodes horizontally off any
non-incident edge they touch.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import permutations
from operator import add, itemgetter

from .embedding import DimEmbedding
from .errors import ContractViolation, RepairFailed

DEFAULT_SPREAD_DEG = 45.0
ASSIGNMENT_CAP = 8
REPAIR_EPS = 1e-3
_REPAIR_ROUNDS = 100
_REPAIR_MAX_STEPS = 64


@dataclass(frozen=True)
class AxisFrame:
    """Projection directions (cos t, sin t), all pointing upward."""

    directions: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Layout:
    """Plane positions per concept plus the cover edges drawn between them."""

    points: tuple[tuple[float, float], ...]
    edges: tuple[tuple[int, int], ...]
    frame: AxisFrame
    assignment: tuple[int, ...]

    @cached_property
    def crossings(self) -> int:
        """Unordered edge pairs meeting in exactly one interior point
        (pairs sharing an endpoint excluded), counted on first read."""
        return _count_crossings(self.points, self.edges)


@dataclass(frozen=True)
class BestAssignment:
    """Result of the crossing-minimizing search; ``exhaustive`` is False
    when the dimension exceeded the cap and the identity fallback was used."""

    assignment: tuple[int, ...]
    layout: Layout
    exhaustive: bool


def default_frame(d: int, spread_deg: float = DEFAULT_SPREAD_DEG) -> AxisFrame:
    """Equally spaced directions with angles in [90-spread, 90+spread],
    descending; a single vertical axis for d = 1."""
    if d < 1:
        raise ValueError("need at least one direction")
    if not 0.0 < spread_deg < 90.0:
        raise ValueError("spread must be strictly between 0 and 90 degrees")
    if d == 1:
        thetas = [90.0]
    else:
        step = 2.0 * spread_deg / (d - 1)
        thetas = [90.0 + spread_deg - i * step for i in range(d)]

    def component(value: float) -> float:
        # cos(pi/2) is ~6e-17 in doubles; snap so vertical means vertical
        return 0.0 if abs(value) < 1e-15 else value

    dirs = tuple((component(math.cos(math.radians(t))),
                  component(math.sin(math.radians(t))))
                 for t in thetas)
    if len(set(dirs)) < d:
        raise ValueError(f"spread {spread_deg:g} gives two equal directions")
    return AxisFrame(directions=dirs)


def _crosses(points, a: int, b: int, c: int, d: int) -> bool:
    """Whether edges (a, b) and (c, d) cross in ``points``: their closed
    bounding boxes overlap and each segment strictly separates the
    other's endpoints.  Swapping the two edges swaps the two sign tests,
    which are joined by ``and``, so the answer does not depend on which
    edge comes first."""
    (p1x, p1y), (p2x, p2y) = points[a], points[b]
    (q1x, q1y), (q2x, q2y) = points[c], points[d]
    if (max(q1x, q2x) < min(p1x, p2x) or min(q1x, q2x) > max(p1x, p2x)
            or max(q1y, q2y) < min(p1y, p2y) or min(q1y, q2y) > max(p1y, p2y)):
        return False
    ux, uy, vx, vy = q2x - q1x, q2y - q1y, p2x - p1x, p2y - p1y
    # The operand order of each orientation product is fixed: on
    # near-collinear pairs the rounding decides the sign, and with it the
    # count and the chosen assignment.
    return ((ux * (p1y - q1y) - uy * (p1x - q1x))
            * (ux * (p2y - q1y) - uy * (p2x - q1x)) < 0
            and (vx * (q1y - p1y) - vy * (q1x - p1x))
            * (vx * (q2y - p1y) - vy * (q2x - p1x)) < 0)


def _count_pair(points, mirror, edges, limit: float,
                mirror_limit: float) -> tuple[int, int]:
    """Crossings of the layout ``points`` and of ``mirror``, its x-mirror
    to within rounding, from one sweep by low y; each count stops at its
    limit.  ``mirror=None`` counts ``points`` alone.

    With M the largest |coordinate| of ``points``, the sweep tests the
    pairs that share no endpoint and whose boxes, widened by eps =
    1e-9*M, overlap.  A pair whose four orientation values all exceed
    tau = 1e-9*M**2 in size is decided once for both layouts: mirroring
    negates each value, and a point drift of at most eps/1000 moves it by
    under 2e-11*M**2.  Every other pair, and every pair when some point
    drifts further, is decided in each layout by ``_crosses``.  Without a
    mirror eps and tau are 0, and the sweep decides each pair whose closed
    boxes overlap by the same test as ``_crosses``.
    """
    eps = tau = 0.0
    if mirror is not None:
        scale = max(max(abs(x), abs(y)) for x, y in points)
        eps = 1e-9 * scale
        if max(max(abs(x + mx), abs(y - my))
               for (x, y), (mx, my) in zip(points, mirror)) <= eps / 1000:
            tau = eps * scale
        else:
            eps = tau = math.inf
    if limit <= 0 and mirror_limit <= 0:
        return 0, 0
    segments = []
    for a, b in edges:
        (p1x, p1y), (p2x, p2y) = points[a], points[b]
        segments.append((min(p1y, p2y), max(p1y, p2y), min(p1x, p2x), max(p1x, p2x),
                         a, b, p1x, p1y, p2x, p2y, p2x - p1x, p2y - p1y))
    segments.sort(key=itemgetter(0))
    lows = [s[0] for s in segments]
    total = mirror_total = 0
    for i, (_, top, left, right, a, b, p1x, p1y, p2x, p2y, vx, vy) in enumerate(segments):
        left, right = left - eps, right + eps
        for _, _, q_left, q_right, c, d, q1x, q1y, q2x, q2y, ux, uy in segments[
                i + 1:bisect_right(lows, top + eps, i + 1)]:
            if (q_left > right or q_right < left
                    or c == a or c == b or d == a or d == b):
                continue
            o1 = ux * (p1y - q1y) - uy * (p1x - q1x)
            o2 = ux * (p2y - q1y) - uy * (p2x - q1x)
            if not (o1 * o2 < 0 or -tau < o1 < tau or -tau < o2 < tau):
                continue
            o3 = vx * (q1y - p1y) - vy * (q1x - p1x)
            o4 = vx * (q2y - p1y) - vy * (q2x - p1x)
            if -tau < o1 < tau or -tau < o2 < tau or -tau < o3 < tau or -tau < o4 < tau:
                # an orientation value near zero: decide in each layout
                total += _crosses(points, a, b, c, d)
                mirror_total += _crosses(mirror, a, b, c, d)
            elif o3 * o4 < 0:
                total += 1
                mirror_total += 1
            else:
                continue
            if total >= limit and mirror_total >= mirror_limit:
                return limit, mirror_limit
    return min(total, limit), min(mirror_total, mirror_limit)


def _count_crossings(points, edges, limit: float = math.inf) -> int:
    """Edge pairs whose segments cross in one interior point (see
    ``_crosses``), counted by the one-layout sweep; counting stops once
    ``limit`` is reached."""
    return _count_pair(points, None, edges, limit, 0)[0]


def _columns(e: DimEmbedding, frame: AxisFrame):
    """``columns[i][j]``: the x and y contributions of realizer axis i,
    one per concept, when it is drawn along direction j."""
    return [[([c[i] * dx for c in e.coords], [c[i] * dy for c in e.coords])
             for dx, dy in frame.directions] for i in range(e.dim)]


def _points(e: DimEmbedding, columns,
            assignment: tuple[int, ...]) -> tuple[tuple[float, float], ...] | None:
    """point(C) = sum_i coords_i(C) * direction[assignment[i]], added left
    to right from 0 one column at a time, which gives the same bits on
    every Python (``sum`` of floats is compensated since 3.12).  Upward
    covers asserted; None when the fan puts two concepts on one point."""
    xs = ys = [0] * len(e.coords)
    for axis, j in zip(columns, assignment):
        xs, ys = map(add, xs, axis[j][0]), map(add, ys, axis[j][1])
    points = tuple(zip(xs, ys))

    for lo, hi in e.covers:
        if not points[lo][1] < points[hi][1]:
            raise ContractViolation(f"cover edge ({lo}, {hi}) is not upward")
    return points if len(set(points)) == len(points) else None


def project(e: DimEmbedding, frame: AxisFrame,
            assignment: tuple[int, ...] | list[int]) -> Layout:
    """Linear projection: point(C) = sum_i coords_i(C) * direction[assignment[i]].

    Upwardness along every cover edge is guaranteed by construction and
    asserted; points that the spread merges raise ValueError.
    """
    assignment = tuple(assignment)
    if sorted(assignment) != list(range(e.dim)) or len(frame.directions) != e.dim:
        raise ValueError("assignment must permute the frame directions")
    points = _points(e, _columns(e, frame), assignment)
    if points is None:
        raise ValueError("the spread puts two concepts on one point")
    return Layout(points=points, edges=e.covers, frame=frame, assignment=assignment)


def best_assignment(e: DimEmbedding, frame: AxisFrame) -> BestAssignment:
    """Exhaust axis permutations, minimizing crossings.

    Ties break to the lexicographically smallest permutation.  The
    complement p' of a permutation p (p'[i] = d-1-p[i]) draws p's
    x-mirror to within rounding, since direction d-1-j mirrors direction
    j, so one sweep counts both (``_count_pair``) and only the lex-smaller
    member of each pair is visited.  A candidate replaces the best only
    when (count, permutation) is smaller, so its count stops at the best
    count, plus one when it precedes the best: past that it cannot win.
    Both layouts of a pair are still checked for upward covers.  A
    permutation that puts two concepts on one point is skipped, and the
    other member of its pair is then counted alone; ValueError only when
    every permutation merges points.
    Above ASSIGNMENT_CAP (d! search space) the identity assignment is
    returned with ``exhaustive=False``.
    """
    d = e.dim
    identity = tuple(range(d))
    if d == 1 or d > ASSIGNMENT_CAP:
        return BestAssignment(identity, project(e, frame, identity), d == 1)
    columns = _columns(e, frame)
    # (d,) sorts after every permutation, so the first count always wins
    best, best_count = (d,), math.inf
    for perm in permutations(range(d)):
        mirror = tuple(d - 1 - j for j in perm)
        if mirror < perm:
            continue
        layouts = [(candidate, points) for candidate in (perm, mirror)
                   if (points := _points(e, columns, candidate)) is not None]
        limits = [best_count + (candidate < best) for candidate, _ in layouts]
        if len(layouts) == 2:
            counts = _count_pair(layouts[0][1], layouts[1][1], e.covers, *limits)
        else:
            counts = [_count_crossings(points, e.covers, limit)
                      for (_, points), limit in zip(layouts, limits)]
        for count, (candidate, _) in zip(counts, layouts):
            if (count, candidate) < (best_count, best):
                best, best_count = candidate, count
    if best_count == math.inf:
        raise ValueError("the spread puts two concepts on one point under "
                         "every axis assignment")
    return BestAssignment(best, project(e, frame, best), True)


def normalize(layout: Layout) -> Layout:
    """Scale and translate so the bounding box is the unit square.

    Each axis maps onto [0, 1] independently; a degenerate span collapses
    to 0.  Crossings are unaffected (positive affine map).
    """
    xs = [p[0] for p in layout.points]
    ys = [p[1] for p in layout.points]
    if not xs:
        return layout

    def scaler(lo: float, hi: float):
        span = hi - lo
        if span <= 0.0:
            return lambda v: 0.0
        return lambda v: (v - lo) / span

    fx = scaler(min(xs), max(xs))
    fy = scaler(min(ys), max(ys))
    return replace(layout, points=tuple((fx(x), fy(y)) for x, y in layout.points))


def _segment_distance(p, a, b) -> float:
    vx, vy = b[0] - a[0], b[1] - a[1]
    wx, wy = p[0] - a[0], p[1] - a[1]
    norm2 = vx * vx + vy * vy
    if norm2 <= 0.0:
        return math.hypot(wx, wy)
    t = (wx * vx + wy * vy) / norm2
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    return math.hypot(wx - t * vx, wy - t * vy)


def repair_incidences(layout: Layout) -> Layout:
    """Nudge nodes horizontally until none touches a non-incident edge.

    A node offends when it lies within REPAIR_EPS (relative to the
    bounding-box diagonal) of an edge it is not an endpoint of.  Each
    round scans every node once; the offending nodes are visited in
    index order and moved by +-k*delta (delta = 2*REPAIR_EPS relative,
    + before -, smallest k first); y never changes, so upwardness
    survives.  Candidate positions never leave the input bounding box,
    which keeps the relative tolerance monotone and the operation
    idempotent.  Raises RepairFailed with the offending (node, edge)
    pairs of the last scan when a round moves nothing or the round cap
    is hit.
    """
    points = [tuple(p) for p in layout.points]
    edges = layout.edges
    if not points or not edges:
        return layout

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    diag = math.hypot(x_hi - x_lo, max(ys) - min(ys))
    if diag <= 0.0:
        diag = 1.0
    threshold = REPAIR_EPS * diag
    delta = 2.0 * threshold
    # y never changes, so an edge whose y-range ends more than the
    # threshold from a node's y can never touch it: keep, per node, the
    # edges not incident to it that come within twice the threshold
    window = 2.0 * threshold
    near = [[(u, v) for u, v in edges
             if node != u and node != v
             and min(ys[u], ys[v]) - window <= y <= max(ys[u], ys[v]) + window]
            for node, y in enumerate(ys)]

    def touching(node: int, p):
        """The edges not incident to ``node`` within the threshold of ``p``."""
        return ((u, v) for u, v in near[node]
                if _segment_distance(p, points[u], points[v]) < threshold)

    def clear_at(node: int, x: float) -> bool:
        candidate = (x, points[node][1])
        return (not any(p == candidate
                        for other, p in enumerate(points) if other != node)
                and next(touching(node, candidate), None) is None)

    def nudge(nodes) -> bool:
        """Move each node to its first clear candidate; whether any moved."""
        moved = False
        for node in nodes:
            base_x = points[node][0]
            candidates = (x for k in range(1, _REPAIR_MAX_STEPS + 1)
                          for x in (base_x + k * delta, base_x - k * delta)
                          if x_lo <= x <= x_hi)
            x = next((x for x in candidates if clear_at(node, x)), None)
            if x is not None:
                points[node] = (x, points[node][1])
                moved = True
        return moved

    for round_no in range(_REPAIR_ROUNDS + 1):
        offenders = [(node, edge) for node, p in enumerate(points)
                     for edge in touching(node, p)]
        if not offenders:
            return replace(layout, points=tuple(points))
        if (round_no == _REPAIR_ROUNDS
                or not nudge(sorted({n for n, _ in offenders}))):
            raise RepairFailed(offenders)
