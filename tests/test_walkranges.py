"""`walkranges.walk`, the one lattice walk, against a brute-force oracle.

The oracle lists every integer vector of the static box |c_j| <= bound[j],
keeps those on start + L, and admits a prefix c_0 .. c_j when each c_i lies
in one of the real intervals `node_ranges(i, c)` gives at its node (no
interval for None; an infinite endpoint leaves that side open).  The walk
must yield the admitted vectors in increasing coordinate order and call
`on_node` once per admitted prefix.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from quatsys.walkranges import walk


def _admits(spans, x) -> bool:
    return spans is None or any(lo <= x <= hi for lo, hi in spans)


def oracle(rows, start, bound, node_ranges):
    """(full vectors in walk order, number of nodes) by listing the static box."""
    dim = len(rows)
    out, prefixes = [], set()
    for c in itertools.product(*(range(-b, b + 1) for b in bound[:dim])):
        vec = list(start)
        for j in range(dim):
            h = rows[j][j]
            if (c[j] - vec[j]) % h:
                break
            if not _admits(node_ranges(j, vec), c[j]):
                break
            n = (c[j] - vec[j]) // h
            vec = [v + n * r for v, r in zip(vec, rows[j])]
            prefixes.add(c[:j + 1])
        else:
            out.append(vec)
    return sorted(out, key=lambda v: v[:dim]), len(prefixes)


def run_walk(rows, start, bound, node_ranges):
    nodes = 0

    def on_node():
        nonlocal nodes
        nodes += 1

    return [list(v) for v in walk(rows, start, bound, node_ranges, on_node)], nodes


def test_walk_matches_the_oracle_on_a_fixed_box():
    # pivots 2 and 3, a nonzero start, a carried fourth coordinate
    rows = [[2, 1, -1, 3], [0, 3, 2, 1], [0, 0, 1, -2]]
    start = [1, -1, 2, 5]
    bound = [5, 6, 4]

    def node_ranges(j, c):
        if j == 0:
            return None
        if j == 1:  # disjoint intervals, points among them, as pinned prefixes give
            return [(-math.inf, -3.5), (c[0], c[0]), (2.25, 2.75), (4, math.inf)]
        # no interval: nothing below the node
        return [] if c[0] == c[1] else [(-c[0] - c[1] - 0.5, math.inf)]

    got, nodes = run_walk(rows, start, bound, node_ranges)
    want, want_nodes = oracle(rows, start, bound, node_ranges)
    assert got == want and nodes == want_nodes
    assert len(want) > 10 and want_nodes > len(want)


@st.composite
def spans(draw):
    """None, or up to three disjoint increasing real intervals, points allowed."""
    kind = draw(st.sampled_from(["none", "intervals", "points"]))
    if kind == "none":
        return None
    if kind == "points":
        pts = sorted(draw(st.sets(st.integers(-6, 6), max_size=4)))
        return [(q, q) for q in pts]
    ends = sorted(draw(st.sets(st.integers(-12, 12), max_size=6)))
    ends = [e / 2 for e in ends[:len(ends) // 2 * 2]]
    out = list(zip(ends[::2], ends[1::2]))
    if out and draw(st.booleans()):
        out[0] = (-math.inf, out[0][1])
    if out and draw(st.booleans()):
        out[-1] = (out[-1][0], math.inf)
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_walk_matches_the_oracle(data):
    dim = data.draw(st.integers(1, 3), label="dim")
    width = dim + data.draw(st.integers(0, 1), label="carried")
    rows = [[0] * width for _ in range(dim)]
    for j in range(dim):
        rows[j][j] = data.draw(st.integers(1, 3))
        for k in range(j + 1, width):
            rows[j][k] = data.draw(st.integers(-3, 3))
    start = data.draw(st.lists(st.integers(-4, 4), min_size=width, max_size=width))
    bound = data.draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim))
    table = [data.draw(spans(), label=f"ranges {j}") for j in range(dim)]

    def node_ranges(j, c):
        # shifted by the prefix, so the ranges change from node to node
        shift = sum(c[:j]) % 3
        return None if table[j] is None else [(lo + shift, hi + shift) for lo, hi in table[j]]

    assert run_walk(rows, start, bound, node_ranges) == oracle(rows, start, bound, node_ranges)
