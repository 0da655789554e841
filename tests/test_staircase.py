"""The n = 3 staircase module on its own: the Frobenius closed form against
the corners, the walk's basis, and the box scan against brute force."""

import itertools
import math

from hypothesis import assume, example, given
from hypothesis import strategies as st

from knapgap import KnapsackInstance, frobenius_sieve_oracle
from knapgap.staircase import _axis, _dot, _pack, _scan, corners, frobenius


@st.composite
def triples(draw):
    """Coprime triples in any order, with a coefficient 1, duplicates and a
    third coefficient the other two represent coming up often."""
    entry = st.integers(min_value=1, max_value=80)
    a = [draw(entry), draw(entry)]
    kind = draw(st.sampled_from(["random", "one", "duplicate", "redundant"]))
    if kind == "random":
        a.append(draw(entry))
    elif kind == "one":
        a.append(1)
    elif kind == "duplicate":
        a.append(a[0])
    else:
        a.append(a[0] * draw(st.integers(0, 4)) + a[1] * draw(st.integers(1, 4)))
    assume(math.gcd(*a) == 1)
    return tuple(draw(st.permutations(a)))


# a pivot m, two generators that may share a factor with m or be a
# multiple of it, and nonnegative integer costs, zero ones included
@st.composite
def lattices(draw, max_modulus=200, max_generator=300, max_cost=20):
    m = draw(st.integers(min_value=1, max_value=max_modulus))
    g = [draw(st.integers(min_value=1, max_value=max_generator)) for _ in range(2)]
    if draw(st.booleans()):
        g[draw(st.integers(0, 1))] = m * draw(st.integers(min_value=1, max_value=3))
    assume(math.gcd(m, *g) == 1)
    w = tuple(draw(st.integers(min_value=0, max_value=max_cost)) for _ in range(2))
    return m, tuple(g), w


def _orders(g, w):
    """The three orders the package walks: frobenius's loads, gap_exact's
    reduced-cost table and its packed (load, cost) table."""
    return [(g,), (w, (1, 1), (0, 1)), (g, w, (0, 1))]


class TestFrobenius:
    @given(a=triples())
    @example(a=(6, 9, 20))
    @example(a=(1, 1, 1))
    @example(a=(30000000, 30000001, 59999999))  # a long run of quotients 2
    def test_closed_form_is_the_largest_corner_load(self, a):
        m = min(a)
        g = list(a)
        g.remove(m)
        expected = max(_dot(g, x) for x in corners(m, g, (g,))) - m
        assert frobenius(a, m) == expected
        if m * max(a) <= 10**6:  # the sieve's bitset stays small
            assert expected == frobenius_sieve_oracle(KnapsackInstance(a))


class TestBasis:
    @given(case=lattices())
    @example(case=(1, (4, 6), (0, 0)))  # m = 1
    @example(case=(5, (10, 7), (3, 8)))  # the self-loop 10
    @example(case=(10007, (10008, 20013), (1, 2)))  # bisected runs of 2
    @example(case=(10006, (10005, 10008), (3, 2)))  # gcd(g_2, m) = 2
    def test_every_order_walks_to_a_basis(self, case):
        # (A, -c) and (-d, B) lie in the lattice g.v = 0 mod m and span m
        m, g, w = case
        for order in _orders(g, w):
            a, c, d, b = _axis(m, g[0], g[1], *_pack(m, order))
            assert (g[0] * a - g[1] * c) % m == 0, order
            assert (g[1] * b - g[0] * d) % m == 0, order
            assert a * b - c * d == m, order
            assert min(a, b) >= 1 and min(c, d) >= 0, order


def _class_minima(m, g, w):
    """The smallest point of [0, m]^2 per class of g.v mod m in the packed
    order (g.v, w.v, v_2), by enumeration."""
    best = {}
    for v in itertools.product(range(m + 1), repeat=2):
        r = _dot(g, v) % m
        key = (_dot(g, v), _dot(w, v), v[1])
        if r not in best or key < best[r][0]:
            best[r] = key, v
    return [v for _, v in best.values()]


class TestScan:
    @given(case=lattices(max_modulus=24, max_generator=40, max_cost=6))
    @example(case=(25, (7, 11), (3, 5)))
    @example(case=(24, (35, 17), (0, 4)))  # a zero cost
    def test_every_limit_against_brute_force(self, case):
        m, g, w = case
        points = _class_minima(m, g, w)
        packed = corners(m, g, (g, w, (0, 1)))
        # the staircase is the union of its corners' boxes
        boxes = {(i, j) for x, y in packed for i in range(x + 1) for j in range(y + 1)}
        assert boxes == set(points)
        for limit in range(max(_dot(g, v) for v in points) + 2):
            below = [_dot(w, v) for v in points if _dot(g, v) < limit]
            assert _scan(packed, g, w, limit) == max(below, default=0), limit
