"""Plane projection of the integer embedding, as an upward drawing.

The d realizer axes are mapped onto d unit vectors fanned symmetrically
around vertical, equally spaced within +-spread degrees.  Every
direction has a strictly positive y component and all coordinates
strictly increase along comparable pairs, so any axis assignment yields
an upward drawing for free.  The assignment (which realizer axis goes to
which fan direction) is chosen by exhaustive search to minimize edge
crossings.  The fan is mirror symmetric to the bit, so a permutation and
its complement draw exact x-mirrors with equal counts, and one sweep
over the edges by low y, testing only pairs with overlapping bounding
boxes, counts each complement pair.  When the sweeps outweigh a fork,
they are split across the CPUs the process may use: short-lived forked
children sweep interleaved shares, and the parent takes the least
(count, permutation), so the winner and its points are the serial ones
bit for bit.  A final repair pass nudges nodes horizontally off any
non-incident edge they touch.
"""

from __future__ import annotations

import math
import os
import sys
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
# swept permutations x covers^2 per forked share: about 2 ms of sweeping,
# twice what a fork and its reap cost on a 21 MB process
_SHARE_WORK = 100_000


@dataclass(frozen=True)
class AxisFrame:
    """Projection directions (cos t, sin t), all pointing upward."""

    directions: tuple[tuple[float, float], ...]

    def __post_init__(self):
        # stored as a tuple of float pairs, so the mirror test in
        # best_assignment also recognises a frame built from lists
        object.__setattr__(self, "directions",
                           tuple((float(x), float(y)) for x, y in self.directions))
        if not all(y > 0.0 for _, y in self.directions):  # NaN fails too
            raise ValueError("a frame direction does not point upward")


@dataclass(frozen=True)
class Layout:
    """Plane positions per concept plus the cover edges drawn between them."""

    points: tuple[tuple[float, float], ...]
    edges: tuple[tuple[int, int], ...]

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
    descending; a single vertical axis for d = 1.  Direction d-1-j is
    built as exactly (-x, y) of direction j, so the fan is mirror
    symmetric to the bit and ``best_assignment`` sweeps one member of
    each complement pair."""
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

    # the left half and, for odd d, the vertical middle; the right half
    # mirrors the left, since cos(180-t) and -cos(t) differ in doubles
    dirs = [(component(math.cos(math.radians(t))),
             component(math.sin(math.radians(t))))
            for t in thetas[:d - d // 2]]
    dirs += [(-x, y) for x, y in reversed(dirs[:d // 2])]
    if len(set(dirs)) < d:
        raise ValueError(f"spread {spread_deg:g} gives two equal directions")
    return AxisFrame(directions=tuple(dirs))


def _count_crossings(points, edges, limit: float = math.inf) -> int:
    """Edge pairs whose segments cross in one interior point: strict
    orientation flips on both segments.  Counting stops once ``limit`` is
    reached.  A sweep by low y tests only the pairs whose closed bounding
    boxes overlap and that share no endpoint; which edge plays p does not
    matter, since the two sign tests are joined by ``and``."""
    if limit <= 0:
        return 0
    segments = []
    for a, b in edges:
        (p1x, p1y), (p2x, p2y) = points[a], points[b]
        segments.append((p1y if p1y < p2y else p2y, p2y if p1y < p2y else p1y,
                         p1x if p1x < p2x else p2x, p2x if p1x < p2x else p1x,
                         a, b, p1x, p1y, p2x, p2y, p2x - p1x, p2y - p1y))
    segments.sort(key=itemgetter(0))
    lows = [s[0] for s in segments]
    total = 0
    for i, (_, top, left, right, a, b, p1x, p1y, p2x, p2y, vx, vy) in enumerate(segments):
        for _, _, q_left, q_right, c, d, q1x, q1y, q2x, q2y, ux, uy in segments[
                i + 1:bisect_right(lows, top, i + 1)]:
            if (q_left > right or q_right < left
                    or c == a or c == b or d == a or d == b):
                continue
            # The operand order of each orientation product is fixed: on
            # near-collinear pairs the rounding decides the sign, and with
            # it the count and the chosen assignment.
            if ((ux * (p1y - q1y) - uy * (p1x - q1x))
                    * (ux * (p2y - q1y) - uy * (p2x - q1x)) < 0
                    and (vx * (q1y - p1y) - vy * (q1x - p1x))
                    * (vx * (q2y - p1y) - vy * (q2x - p1x)) < 0):
                total += 1
                if total >= limit:
                    return total
    return total


def _columns(e: DimEmbedding, frame: AxisFrame):
    """``columns[i][j]``: the x and y contributions of realizer axis i,
    one per concept, along direction j of a frame with one per axis."""
    if len(frame.directions) != e.dim:
        raise ValueError("assignment must permute the frame directions")
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
    if sorted(assignment) != list(range(e.dim)):
        raise ValueError("assignment must permute the frame directions")
    points = _points(e, _columns(e, frame), assignment)
    if points is None:
        raise ValueError("the spread puts two concepts on one point")
    return Layout(points=points, edges=e.covers)


def _search(e: DimEmbedding, columns, perms):
    """(count, perm, points) of the lex-first minimum over ``perms``, which
    are in lex order; (inf, None, None) when every one merges points."""
    best, best_points, best_count = None, None, math.inf
    for perm in perms:
        points = _points(e, columns, perm)
        if points is None:
            continue
        count = _count_crossings(points, e.covers, best_count)
        if count < best_count:
            best, best_points, best_count = perm, points, count
    return best_count, best, best_points


def _n_shares(perms, n_edges: int) -> int:
    """How many processes sweep ``perms``: one per CPU the process may use,
    but no more than gives each share _SHARE_WORK, and one where fork is
    missing or another Python thread is alive, since a forked child
    would inherit the locks that thread holds."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus, len(perms) * n_edges ** 2 // _SHARE_WORK))


def _split_search(e: DimEmbedding, columns, perms, n: int) -> list:
    """``_search`` on n interleaved shares of ``perms``, each in lex order.

    The parent sweeps the first share; each other share goes to a forked
    child that writes its (count, perm) to a pipe as one line of ints,
    or an empty line when its share has no winner, and ends with
    os._exit, so it neither returns nor flushes stdio.  Every child is
    read to EOF and reaped, also when the parent's share raises.  A share
    whose child delivered nothing, or that could not be forked, is swept
    again here, so its error is raised in the parent."""
    shares = [perms[i::n] for i in range(n)]
    children = []
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: EOF at once, swept here
                pid = None
            if pid == 0:
                try:
                    count, perm, _ = _search(e, columns, share)
                    ints = () if perm is None else (count, *perm)
                    os.write(write, f"{' '.join(map(str, ints))}\n".encode())
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read, share))
        results = [_search(e, columns, shares[0])]
    finally:
        lines = []
        for pid, read, _ in children:
            with os.fdopen(read, "rb") as pipe:
                lines.append(pipe.read())
            if pid:
                os.waitpid(pid, 0)
    for line, (_, _, share) in zip(lines, children):
        if not line:
            results.append(_search(e, columns, share))
        elif ints := [int(value) for value in line.split()]:
            results.append((ints[0], tuple(ints[1:]), None))
    return results


def best_assignment(e: DimEmbedding, frame: AxisFrame) -> BestAssignment:
    """Exhaust axis permutations, minimizing crossings.

    Ties break to the lexicographically smallest permutation.  The
    complement p' of a permutation p (p'[i] = d-1-p[i]) draws exactly
    p's x-mirror on a mirror-symmetric frame such as ``default_frame``'s:
    direction d-1-j is (-x, y) of direction j, round-to-nearest is
    symmetric under negation and the points are summed column by column
    from 0.  Every orientation value is then exactly negated, so p' has
    p's crossings, collisions and upward covers, and only the lex-smaller
    member of each pair is visited, in lex order.  On a frame that is
    not mirror symmetric every permutation is visited.  A candidate
    replaces the best only with a strictly lower count, so its count
    stops at the best count: past that it cannot win.  A permutation
    that puts two concepts on one point is skipped; ValueError only when
    every permutation merges points.
    Up to ASSIGNMENT_CAP (d!/2 sweeps) every d, 1 included, is searched;
    above it the identity assignment is returned with ``exhaustive=False``.

    The sweeps split across processes, so ``dimdraw draw`` may fork
    short-lived children, when fork exists, no other Python thread is
    alive, the process may run on more than one CPU and the swept
    permutations times the squared cover count reach 2 * _SHARE_WORK.
    There is one interleaved share per CPU, and none under _SHARE_WORK.
    Each share keeps lex order and yields its lex-first minimum, so the
    least (count, perm) over the shares is the serial winner, and a
    child's winner has its points rebuilt by the same column sums: the
    result is the serial one bit for bit.
    """
    d = e.dim
    if d > ASSIGNMENT_CAP:
        identity = tuple(range(d))
        return BestAssignment(identity, project(e, frame, identity), False)
    columns = _columns(e, frame)
    symmetric = frame.directions == tuple((-x, y) for x, y in reversed(frame.directions))
    perms = [perm for perm in permutations(range(d))
             if not (symmetric and tuple(d - 1 - j for j in perm) < perm)]
    results = _split_search(e, columns, perms, _n_shares(perms, len(e.covers)))
    found = [result for result in results if result[1] is not None]
    if not found:
        raise ValueError("the spread puts two concepts on one point under "
                         "every axis assignment")
    _, best, points = min(found, key=itemgetter(0, 1))
    if points is None:
        points = _points(e, columns, best)
    return BestAssignment(best, Layout(points=points, edges=e.covers), True)


def normalize(layout: Layout) -> Layout:
    """Scale and translate so the bounding box is the unit square.

    Each axis maps onto [0, 1] independently; a degenerate span collapses
    to 0.  Rounding may move a point that lies on an edge off it, and so
    change the crossing count (ROADMAP item 8).
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
    idempotent.  A node is measured only against the edges whose y-range
    and current x-range both come within twice the threshold of it; any
    other edge is provably at least the threshold away.  Raises
    RepairFailed with the offending (node, edge) pairs of the last scan
    when a round moves nothing or the round cap is hit.
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
    # y never changes, so keep per node the edges not incident to it
    # whose y-range comes within the window; x is tested at each call
    window = 2.0 * threshold
    spans = [(u, v, min(ys[u], ys[v]) - window, max(ys[u], ys[v]) + window)
             for u, v in edges]
    near = [[(u, v) for u, v, low, high in spans
             if node != u and node != v and low <= y <= high]
            for node, y in enumerate(ys)]

    def touching(node: int, p):
        """The edges not incident to ``node`` within the threshold of ``p``."""
        left, right = p[0] - window, p[0] + window
        return ((u, v) for u, v in near[node]
                if (points[u][0] >= left or points[v][0] >= left)
                and (points[u][0] <= right or points[v][0] <= right)
                and _segment_distance(p, points[u], points[v]) < threshold)

    def clear_at(node: int, x: float) -> bool:
        candidate = (x, points[node][1])
        # the node's own point counts once when x rounds back onto it
        return (points.count(candidate) <= (points[node] == candidate)
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
