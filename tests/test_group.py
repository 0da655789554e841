"""Residue-class minima, witnesses, Frobenius numbers, covering radii."""

import itertools
import math
import sys
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import knapgap.group
from knapgap import (
    BoundTooLarge,
    KnapsackInstance,
    NegativeWeight,
    NoPointInBox,
    ValidationError,
    basis_reduction,
    frobenius,
    frobenius_sieve_oracle,
    group_min_bruteforce,
    group_minima,
    tightness_threshold,
)
from knapgap.group import _packed_maxima, _round_robin

small_instances = (
    st.lists(st.integers(min_value=1, max_value=60), min_size=2, max_size=4)
    .filter(lambda a: math.gcd(*a) == 1)
    .map(lambda a: KnapsackInstance(tuple(a)))
)


class TestGroupTable:
    def test_single_generator_table(self):
        table = group_minima(KnapsackInstance((3, 5)), 1, (3,))
        assert table.modulus == 5
        assert table.generators == (3,)
        assert table.minima == [0, 6, 12, 3, 9]
        assert table.witness == [(0,), (2,), (4,), (1,), (3,)]
        assert table.load == [0, 6, 12, 3, 9]
        assert max(table.minima) == 12
        assert tightness_threshold(table) == 12

    def test_two_generator_value(self):
        table = group_minima(KnapsackInstance((6, 9, 20)), 0, (9, 20))
        assert table.minima[1] == 49  # 9*1 + 20*2
        assert table.minima[0] == 0

    def test_modulus_one(self):
        table = group_minima(KnapsackInstance((1, 7)), 0, (0,))
        assert table.modulus == 1
        assert table.minima == [0]
        assert tightness_threshold(table) == 0
        assert max(table.minima) == 0

    def test_zero_weights(self):
        table = group_minima(KnapsackInstance((4, 7)), 0, (0,))
        assert table.minima == [0, 0, 0, 0]
        assert max(table.minima) == 0
        # witnesses must still be consistent, not cyclic garbage
        for r, x in enumerate(table.witness):
            assert 7 * x[0] % 4 == r

    def test_rational_weights(self):
        table = group_minima(KnapsackInstance((3, 5)), 1, (Fraction(1, 2),))
        assert table.minima == [0, Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)]

    def test_rejects_negative_weight(self):
        with pytest.raises(NegativeWeight):
            group_minima(KnapsackInstance((3, 5)), 1, (-1,))

    def test_rejects_bad_tau(self):
        with pytest.raises(ValidationError):
            group_minima(KnapsackInstance((3, 5)), 2, (1,))

    def test_weight_count_mismatch(self):
        with pytest.raises(ValidationError):
            group_minima(KnapsackInstance((3, 5)), 1, (1, 2))

    @given(inst=small_instances, data=st.data())
    @settings(max_examples=40)
    def test_weight_spellings_agree(self, inst, data):
        # plain ints skip the Fraction round trip; the result must not show it
        tau = data.draw(st.integers(min_value=0, max_value=inst.n - 1))
        ints = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=50),
                min_size=inst.n - 1,
                max_size=inst.n - 1,
            )
        )
        tables = [
            group_minima(inst, tau, spelled)
            for spelled in (
                ints,
                [Fraction(w) for w in ints],
                [f"{2 * w}/2" for w in ints],
            )
        ]
        for table in tables:
            assert table.weights == tuple(ints)
            assert table.minima == tables[0].minima
            assert all(type(v) is int for v in table.weights + tuple(table.minima))

    @pytest.mark.parametrize(
        "weights, error",
        [
            ((True,), ValidationError),
            ((1, False), ValidationError),
            ((-1, 2), NegativeWeight),
            ((Fraction(-1, 2), 2), NegativeWeight),
            ((1,), ValidationError),
            ((1, 2, 3), ValidationError),
        ],
    )
    def test_weight_validation(self, weights, error):
        with pytest.raises(error):
            group_minima(KnapsackInstance((3, 5, 7)), 0, weights)

    def test_guardrail(self, monkeypatch):
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "10")
        with pytest.raises(BoundTooLarge, match="KNAPGAP_GUARDRAIL_CELLS"):
            group_minima(KnapsackInstance((3, 50)), 1, (1,))
        # the cap admits a table of exactly its size
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "50")
        group_minima(KnapsackInstance((3, 50)), 1, (1,))

    @given(inst=small_instances, data=st.data())
    def test_witness_invariants(self, inst, data):
        tau = data.draw(st.integers(min_value=0, max_value=inst.n - 1))
        weights = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=30),
                min_size=inst.n - 1,
                max_size=inst.n - 1,
            )
        )
        table = group_minima(inst, tau, weights)
        m = table.modulus
        assert table.minima[0] == 0
        assert len(table.minima) == m
        for r in range(m):
            x = table.witness[r]
            assert all(xi >= 0 for xi in x)
            assert sum(w * xi for w, xi in zip(table.weights, x)) == table.minima[r]
            assert sum(g * xi for g, xi in zip(table.generators, x)) % m == r
            assert table.load[r] == sum(g * xi for g, xi in zip(table.generators, x))
        # fixed-point property: no arc improves any label
        for r in range(m):
            for g, w in zip(table.generators, table.weights):
                assert table.minima[(r + g) % m] <= table.minima[r] + w

    @given(inst=small_instances, data=st.data())
    @settings(max_examples=25)
    def test_against_bruteforce(self, inst, data):
        tau = data.draw(st.integers(min_value=0, max_value=inst.n - 1))
        weights = tuple(inst.a[j] for j in range(inst.n) if j != tau)
        table = group_minima(inst, tau, weights)
        m = table.modulus
        r = data.draw(st.integers(min_value=0, max_value=m - 1))
        # every class has a point with all coordinates < m
        value = group_min_bruteforce(inst, tau, weights, r, radius=m)
        assert value == table.minima[r]


class TestBruteforceBox:
    def test_known_value(self):
        got = group_min_bruteforce(KnapsackInstance((6, 9, 20)), 0, (9, 20), 1, 12)
        assert got == 49

    def test_box_too_small(self):
        with pytest.raises(NoPointInBox):
            group_min_bruteforce(KnapsackInstance((5, 7)), 0, (7,), 1, 0)


class TestFrobenius:
    @pytest.mark.parametrize(
        "a,expected",
        [((2, 3), 1), ((3, 5), 7), ((6, 9, 20), 43), ((1, 7), -1), ((7, 1), -1)],
    )
    def test_known_values(self, a, expected):
        assert frobenius(KnapsackInstance(a)) == expected

    @pytest.mark.parametrize("a", [(2, 3), (3, 5), (6, 9, 20), (1, 7), (11, 13, 17, 19)])
    def test_sieve_agrees(self, a):
        inst = KnapsackInstance(a)
        assert frobenius(inst) == frobenius_sieve_oracle(inst)

    @given(inst=small_instances)
    @settings(max_examples=40)
    def test_sieve_agrees_random(self, inst):
        assert frobenius(inst) == frobenius_sieve_oracle(inst)

    @given(
        a1=st.integers(min_value=1, max_value=300),
        a2=st.integers(min_value=1, max_value=300),
    )
    def test_two_coefficient_closed_form(self, a1, a2):
        assume(math.gcd(a1, a2) == 1)
        inst = KnapsackInstance((a1, a2))
        assert frobenius(inst) == a1 * a2 - a1 - a2

    def test_definition_via_representability(self):
        # g is the largest non-representable b: check directly for (6, 9, 20)
        inst = KnapsackInstance((6, 9, 20))
        g = frobenius(inst)

        def representable(b):
            reach = [False] * (b + 1)
            reach[0] = True
            for coin in inst.a:
                for t in range(coin, b + 1):
                    if reach[t - coin]:
                        reach[t] = True
            return reach[b]

        assert not representable(g)
        assert all(representable(b) for b in range(g + 1, g + 1 + max(inst.a)))


# Triples for the n = 3 route: random ones, a pair sharing a factor (Johnson
# reduction), a third coefficient representable by the other two (the v = -1
# case of Roedseth's formula), a coefficient 1 and duplicates, each in a
# random order.
@st.composite
def triples(draw):
    entry = st.integers(min_value=1, max_value=80)
    kind = draw(st.sampled_from(["random", "shared", "redundant", "one", "duplicate"]))
    if kind == "random":
        a = [draw(entry) for _ in range(3)]
    elif kind == "shared":
        d = draw(st.integers(min_value=2, max_value=12))
        a = [d * draw(st.integers(1, 15)), d * draw(st.integers(1, 15)), draw(entry)]
    elif kind == "redundant":
        p, q = draw(entry), draw(entry)
        a = [p, q, p * draw(st.integers(0, 5)) + q * draw(st.integers(1, 5))]
    elif kind == "one":
        a = [1, draw(entry), draw(entry)]
    else:
        v = draw(entry)
        a = [v, v, draw(entry)]
    assume(math.gcd(*a) == 1)
    return KnapsackInstance(tuple(draw(st.permutations(a))))


class TestThreeCoefficients:
    @given(inst=triples())
    @settings(max_examples=400)
    def test_against_sieve_and_table(self, inst):
        g = frobenius(inst)
        assert g == frobenius_sieve_oracle(inst)
        tau = inst.a.index(inst.min_entry)
        weights = [v for j, v in enumerate(inst.a) if j != tau]
        assert max(group_minima(inst, tau, weights).minima) - inst.a[tau] == g

    @pytest.mark.parametrize(
        "a", [(2, 5, 9), (6, 10, 15), (6, 9, 20), (4, 4, 5), (1, 7, 9), (12, 18, 35)]
    )
    def test_every_order(self, a):
        expected = frobenius_sieve_oracle(KnapsackInstance(a))
        for order in itertools.permutations(a):
            assert frobenius(KnapsackInstance(order)) == expected

    def test_guardrail_still_counts_the_table(self, monkeypatch):
        inst = KnapsackInstance((20, 9, 6))
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "5")
        with pytest.raises(BoundTooLarge, match="residue table modulo 6"):
            frobenius(inst)
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "6")
        assert frobenius(inst) == 43


class TestCoveringRadii:
    @given(inst=small_instances)
    @settings(max_examples=25)
    def test_group_route_matches_frobenius_route(self, inst):
        # max residue minimum with tau at the end and the other coefficients
        # as weights equals g(a) + a_n
        table = group_minima(inst, inst.n - 1, inst.a[:-1])
        assert max(table.minima) == frobenius(inst) + inst.a[-1]


# Tables on both sides of the numpy cutoff, with the arcs each execution of
# the round-robin recurrence must handle: a generator divisible by m (a
# self-loop), generators sharing a factor with m (several cycles), zero,
# rational and huge weights (no int64 headroom, so Python ints).  Up to
# max_dominated more generators are a sum or multiple of earlier ones, or
# take an earlier one's step with a larger coefficient, and weigh the sum of
# their parts' weights plus an extra of -1 to 2: from 0 on their pass is
# skipped, at -1 it must run and may make a parent's pass skippable.
@st.composite
def kernel_cases(draw, max_modulus=300, max_generators=3, max_dominated=2):
    m = draw(st.integers(min_value=2, max_value=max_modulus))
    gens = draw(
        st.lists(
            st.integers(min_value=1, max_value=600),
            min_size=1,
            max_size=max_generators,
        )
    )
    if draw(st.booleans()):
        gens.append(m * draw(st.integers(min_value=1, max_value=2)))
    if draw(st.booleans()):
        factor = next(p for p in range(2, m + 1) if m % p == 0)
        gens.append(factor * draw(st.integers(min_value=1, max_value=600 // factor)))
    assume(math.gcd(m, *gens) == 1)
    # (generator, positions of the parts its weight adds up, extra weight)
    dominated = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_dominated))):
        i = draw(st.integers(min_value=0, max_value=len(gens) - 1))
        j = draw(st.integers(min_value=0, max_value=len(gens) - 1))
        k = draw(st.integers(min_value=2, max_value=3))
        shape = draw(st.sampled_from(["sum", "multiple", "step"]))
        if shape == "sum":
            parts = (i, j)
        elif shape == "multiple":
            parts = (i,) * k
        else:
            parts = (i,)
        gen = sum(gens[p] for p in parts) + (m * (k - 1) if shape == "step" else 0)
        dominated.append((gen, parts, draw(st.integers(min_value=-1, max_value=2))))
    count = len(gens)  # weights drawn below; the dominated ones are derived
    gens += [gen for gen, _, _ in dominated]
    tau = draw(st.integers(min_value=0, max_value=len(gens)))
    inst = KnapsackInstance(tuple(gens[:tau]) + (m,) + tuple(gens[tau:]))
    kind = draw(
        st.sampled_from(["coefficients", "ints", "rational", "zeros", "huge"])
    )
    if kind == "coefficients":
        weights = list(gens)
    elif kind == "ints":
        weights = draw(
            st.lists(st.integers(0, 10**4), min_size=count, max_size=count)
        )
    elif kind == "rational":
        weights = draw(
            st.lists(
                st.builds(Fraction, st.integers(0, 50), st.integers(1, 12)),
                min_size=count,
                max_size=count,
            )
        )
    elif kind == "zeros":
        weights = draw(
            st.lists(st.sampled_from([0, 0, 1, 7]), min_size=count, max_size=count)
        )
    else:
        weights = draw(
            st.lists(st.integers(2**60 // m, 2**70), min_size=count, max_size=count)
        )
    if kind != "coefficients":
        for _, parts, extra in dominated:
            weights.append(max(0, sum(weights[p] for p in parts) + extra))
    return inst, tau, weights


def _walked(m, arcs):
    """_round_robin(m, arcs) on the Python walk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knapgap.group, "_NUMPY_MIN_MODULUS", 1 << 62)
        return _round_robin(m, arcs)


def _both_executions(inst, tau, weights, read=lambda table: table.minima):
    """read(table) with the numpy cutoff at 1 and out of reach."""
    out = []
    for cutoff in (1, 1 << 62):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(knapgap.group, "_NUMPY_MIN_MODULUS", cutoff)
            out.append(read(group_minima(inst, tau, weights)))
    return out


class TestRoundRobinKernel:
    @given(case=kernel_cases())
    def test_optimality_certificate(self, case):
        # minima[0] = 0 and no arc improves a label give minima <= optimum;
        # tight arcs reaching every residue give minima >= optimum
        inst, tau, weights = case
        table = group_minima(inst, tau, weights)
        m = table.modulus
        assert table.minima[0] == 0
        for r in range(m):
            for g, w in zip(table.generators, table.weights):
                assert table.minima[(r + g) % m] <= table.minima[r] + w
        witness = table.witness
        for r in range(m):
            x = witness[r]
            assert table.load[r] % m == r
            assert sum(g * xi for g, xi in zip(table.generators, x)) == table.load[r]
            assert sum(w * xi for w, xi in zip(table.weights, x)) == table.minima[r]

    @given(case=kernel_cases())
    def test_executions_agree(self, case):
        fast, scalar = _both_executions(*case)
        assert fast == scalar
        assert [type(v) for v in fast] == [type(v) for v in scalar]

    @given(case=kernel_cases())
    def test_frobenius_against_sieve(self, case):
        inst = case[0]
        assert frobenius(inst) == frobenius_sieve_oracle(inst)

    @given(
        case=kernel_cases(max_modulus=12, max_generators=1, max_dominated=1),
        data=st.data(),
    )
    @settings(max_examples=30)
    def test_small_tables_against_bruteforce(self, case, data):
        inst, tau, weights = case
        m = inst.a[tau]
        r = data.draw(st.integers(min_value=0, max_value=m - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(knapgap.group, "_NUMPY_MIN_MODULUS", 1)
            fast = group_minima(inst, tau, weights).minima[r]
        assert fast == group_min_bruteforce(inst, tau, weights, r, radius=m)

    def test_int64_headroom_edge(self):
        # largest weights the numpy execution accepts, and one more
        m = 200
        inst = KnapsackInstance((m, 3 * m + 1, 7 * m + 3))
        headroom = knapgap.group._INT64_HEADROOM
        top = headroom // m - 1
        assert m * (top + 1) < headroom <= m * (top + 2)
        for w in ([top, top - 5], [top + 1, top]):
            fast, scalar = _both_executions(inst, 0, w)
            assert fast == scalar
            assert max(fast) > 1 << 55
        # the same weights as plain kernel arcs: the first table runs on
        # numpy, the second walks, and both match the walk
        for arcs, walks in (([(1, top), (3, top - 5)], False), ([(1, top + 1), (3, top)], True)):
            labels = _round_robin(m, arcs)
            assert isinstance(labels, list) is walks
            assert list(labels) == _walked(m, arcs)

    def test_lap_term_past_two_to_the_62(self):
        # the step-2 pass reaches the even residues only, so the step-4
        # pass meets odd cycles that hold nothing but the sentinel
        # U = m (top + 1), just below the headroom; their lap term U + w
        # passes 2**62 and must still fit int64
        m = 200
        top = knapgap.group._INT64_HEADROOM // m - 1
        w1, w2 = top // 3, top // 2  # minima[4] = 2 w1 > w2: the pass runs
        arcs = [(2, w1), (4, w2), (1, top)]
        assert m * (top + 1) + w2 > 1 << 62
        labels = _round_robin(m, arcs)
        assert not isinstance(labels, list)
        assert labels.tolist() == _walked(m, arcs)

    def test_index_headroom_edge(self, monkeypatch):
        # cycle indices reach m**2, so a table with small weights but m * m
        # beyond the headroom must walk with Python ints
        m, arcs = 200, [(1, 1), (3, 2)]
        expected = list(_round_robin(m, arcs))
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.setattr(knapgap.group, "_INT64_HEADROOM", m * m + 1)
        with pytest.raises(ImportError):
            _round_robin(m, arcs)
        monkeypatch.setattr(knapgap.group, "_INT64_HEADROOM", m * m)
        assert _round_robin(m, arcs) == expected

    @pytest.mark.parametrize("cutoff", [1, 1 << 62])
    @pytest.mark.parametrize("w", [9, 10, 11])
    def test_skip_only_dominated_passes(self, cutoff, w, monkeypatch):
        # after the step-3 pass residue 6 costs 10, so a step-6 pass of
        # weight 9 must run and one of weight 10 or 11 changes nothing
        monkeypatch.setattr(knapgap.group, "_NUMPY_MIN_MODULUS", cutoff)
        m, arcs = 200, [(6, w), (3, 5)]
        expected = [0] + [float("inf")] * (m - 1)
        changed = True
        while changed:
            changed = False
            for r in range(m):
                for step, weight in arcs:
                    if expected[r] + weight < expected[(r + step) % m]:
                        expected[(r + step) % m] = expected[r] + weight
                        changed = True
        assert list(_round_robin(m, arcs)) == expected

    @staticmethod
    def _cycle_pass_steps(monkeypatch):
        """Steps of the numpy cycle passes _round_robin runs from now on."""
        steps = []

        def counting(labels, index, step, w):
            steps.append(step)
            return real(labels, index, step, w)

        real = knapgap.group._cycle_pass
        monkeypatch.setattr(knapgap.group, "_NUMPY_MIN_MODULUS", 1)
        monkeypatch.setattr(knapgap.group, "_cycle_pass", counting)
        return steps

    # after the step-2 pass residue 4 costs 14, so the step-4 pass of
    # weight 14 is tied-dominated: each execution runs exactly one pass,
    # the first, which is a scatter
    def test_tied_pass_is_skipped_on_numpy(self, monkeypatch):
        steps = self._cycle_pass_steps(monkeypatch)
        assert list(_round_robin(5, [(2, 7), (4, 14)])) == [0, 21, 7, 28, 14]
        assert steps == []

    # the lightest arc (4, 1) comes first and scatters over 0's cycle
    # {0, 4, 8}; the other two passes run as cycle passes
    _PASSES = (12, [(1, 5), (3, 2), (4, 1)], [0, 5, 6, 2, 1, 6, 4, 3, 2, 6, 5, 4])

    def test_first_pass_is_a_scatter(self, monkeypatch):
        m, arcs, expected = self._PASSES
        steps = self._cycle_pass_steps(monkeypatch)
        assert list(_round_robin(m, arcs)) == expected
        assert steps == [3, 1]
        # one arc: the scatter is the whole run
        assert list(_round_robin(5, [(2, 7)])) == [0, 21, 7, 28, 14]
        assert steps == [3, 1]

    def test_python_walk_steps(self, monkeypatch):
        # a pass the walk runs takes m - gcd(s, m) steps: gcd(s, m) cycles
        # of m / gcd(s, m) residues, each walked on from its minimum.  A
        # range is counted each time a loop runs over it, since the walk
        # runs every cycle of a pass over one range.
        lengths = []

        class counting:
            def __init__(self, *args):
                self.steps = range(*args)

            def __iter__(self):
                lengths.append(len(self.steps))
                return iter(self.steps)

        m, arcs, expected = self._PASSES
        monkeypatch.setattr(knapgap.group, "range", counting, raising=False)
        assert _round_robin(m, arcs) == expected
        # the scatter over 3 residues; step 3: 3 starts, 3 cycles of 3
        # steps (12 - 3); step 1: 1 start, one cycle of 11 steps (12 - 1)
        assert lengths == [3, 3, 3, 3, 3, 1, 11]

    def test_tied_pass_is_skipped_on_the_python_walk(self, monkeypatch):
        # the scatter and the walk take one gcd per pass they run
        calls = []

        class CountingMath:
            def gcd(self, *args):
                calls.append(args)
                return math.gcd(*args)

            def __getattr__(self, name):
                return getattr(math, name)

        monkeypatch.setattr(knapgap.group, "math", CountingMath())
        assert _round_robin(5, [(2, 7), (4, 14)]) == [0, 21, 7, 28, 14]
        assert calls == [(2, 5)]

    def test_numpy_takes_tables_from_192_residues(self):
        arcs = [(1, 1)]
        assert not knapgap.group._on_numpy(191, arcs)
        assert knapgap.group._on_numpy(192, arcs)
        assert isinstance(_round_robin(191, arcs), list)
        assert not isinstance(_round_robin(192, arcs), list)

    @pytest.mark.parametrize("cutoff", [1, 1 << 62])
    def test_unreachable_residue_detected(self, cutoff, monkeypatch):
        monkeypatch.setattr(knapgap.group, "_NUMPY_MIN_MODULUS", cutoff)
        with pytest.raises(AssertionError, match="not strongly reachable"):
            _round_robin(6, [(2, 1), (4, 3)])
        assert list(_round_robin(6, [(2, 1), (3, 5)])) == [0, 7, 1, 5, 2, 6]


def _reference_tree(table):
    """Tight-arc tree by a deque BFS with its own seen array and modular
    steps, written apart from GroupTable: (pred_res, pred_gen, load, order)."""
    m = table.modulus
    minima = table.minima
    pred_res, pred_gen, load = [-1] * m, [-1] * m, [0] * m
    seen = [False] * m
    seen[0] = True
    order = [0]
    queue = deque([0])
    while queue:
        r = queue.popleft()
        for k, (gen, w) in enumerate(zip(table.generators, table.weights)):
            nr = (r + gen) % m
            if not seen[nr] and minima[nr] == minima[r] + w:
                seen[nr] = True
                pred_res[nr], pred_gen[nr], load[nr] = r, k, load[r] + gen
                order.append(nr)
                queue.append(nr)
    assert all(seen)
    return pred_res, pred_gen, load, order


# n = 2..6 coefficients, moduli on both sides of _NUMPY_MIN_MODULUS (the
# tables then come from either execution), and weights that are integers,
# mostly zero (tight arcs back to residue 0 and ties between generators) or
# rational.
@st.composite
def tree_cases(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    cutoff = knapgap.group._NUMPY_MIN_MODULUS
    m = draw(
        st.one_of(
            st.integers(min_value=1, max_value=40),
            st.integers(min_value=cutoff - 30, max_value=cutoff - 1),
            st.integers(min_value=cutoff, max_value=cutoff + 250),
        )
    )
    gens = draw(
        st.lists(
            st.integers(min_value=1, max_value=3 * m + 5),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    assume(math.gcd(m, *gens) == 1)
    tau = draw(st.integers(min_value=0, max_value=n - 1))
    inst = KnapsackInstance(tuple(gens[:tau]) + (m,) + tuple(gens[tau:]))
    weight = draw(
        st.sampled_from(
            [
                st.integers(min_value=0, max_value=50),
                st.sampled_from([0, 0, 0, 1, 3]),
                st.builds(Fraction, st.integers(0, 20), st.integers(1, 6)),
            ]
        )
    )
    weights = draw(st.lists(weight, min_size=n - 1, max_size=n - 1))
    return inst, tau, weights


def _searched(table):
    """(load, witness, B*) read off the reference tree: a witness is its
    parent's plus one arc."""
    pred_res, pred_gen, load, order = _reference_tree(table)
    witness = [None] * table.modulus
    witness[0] = (0,) * len(table.generators)
    for r in order[1:]:
        prev, j = witness[pred_res[r]], pred_gen[r]
        witness[r] = prev[:j] + (prev[j] + 1,) + prev[j + 1 :]
    return load, witness, max(load)


def _decoded(table):
    return table.load, table.witness, tightness_threshold(table)


def _executions(inst, tau, weights):
    """(name, table, _decoded(table)) on the Python walk and on numpy with
    the cutoff at 1 (numpy when the packed keys fit the int64 guard)."""
    for name, cutoff in [("python", 1 << 62), ("numpy", 1)]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(knapgap.group, "_NUMPY_MIN_MODULUS", cutoff)
            table = group_minima(inst, tau, weights)
            yield name, table, _decoded(table)


class TestWitnessDecode:
    # the decoded witnesses are those of a breadth-first search over tight arcs
    @given(case=tree_cases())
    @settings(max_examples=150)
    def test_matches_deque_search(self, case):
        for name, table, decoded in _executions(*case):
            assert decoded == _searched(table), name

    def test_zero_weights_lead_back_to_the_root(self):
        # 2 -> 0 is tight at weight 0, yet the root keeps the empty witness
        inst = KnapsackInstance((4, 3, 2))
        for name, table, decoded in _executions(inst, 0, (0, 0)):
            assert decoded == _searched(table), name
            load, witness, _ = decoded
            assert load[0] == 0 and witness[0] == (0, 0)

    @pytest.mark.parametrize(
        "a, c",
        [
            ((20011, 30011, 40009, 50021), (Fraction(3, 2), -1, 7, 2)),
            ((1999, 2503, 3001, 3511, 4007, 4513), (0, 0, 0, 0, 0, 1)),
        ],
    )
    def test_keys_past_the_guard_take_the_python_walk(self, a, c):
        # the reduced costs fit the int64 guard but their packed keys do
        # not, so the table takes the Python walk
        inst = KnapsackInstance(a)
        red = basis_reduction(inst, c)
        table = group_minima(inst, red.tau, red.l)
        assert table._load_radix
        assert _decoded(table) == _searched(table)

    def test_huge_generators_keep_exact_loads(self):
        # the cost fits int64 but a load does not: decoded with Python ints
        table = group_minima(KnapsackInstance((200, 10**20 + 1, 301)), 0, (1, 1))
        assert _decoded(table) == _searched(table)
        assert tightness_threshold(table) > 1 << 64


    def test_self_loop_weight_does_not_choose_the_execution(self):
        # generator 400 is a self-loop modulo 200 whose weight breaks the
        # int64 guard; _round_robin never gets its arc, so the table runs on
        # numpy and every value still comes back as a Python int
        table = group_minima(KnapsackInstance((200, 400, 301)), 0, (6 * 10**15, 1))
        assert not table._load_radix
        load, witness, bstar = decoded = _decoded(table)
        assert decoded == _searched(table)
        values = [*table.minima, *load, bstar, *(x for row in witness for x in row)]
        assert all(type(v) is int for v in values)


class TestGuardrails:
    def test_witness_table_is_capped(self, monkeypatch):
        table = group_minima(KnapsackInstance((6, 9, 20)), 0, (9, 20))
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "11")
        with pytest.raises(BoundTooLarge, match="witness"):
            table.witness
        monkeypatch.setenv("KNAPGAP_GUARDRAIL_CELLS", "12")
        assert table.witness[1] == (1, 2)


def _readout(table):
    return table.minima, table.load, tightness_threshold(table)


# The lightest generator's step s1 is a unit mod m = d e, so its scatter
# reaches s2 = t s1 mod m, a multiple of d, at cost t w1 with t >= 2; with
# w1 <= w2 < t w1 the second pass runs on a step sharing the factor d with
# m.  Further generators weigh at least w2 and have any step.
@st.composite
def shared_step_cases(draw):
    d = draw(st.integers(min_value=2, max_value=12))
    m = d * draw(st.integers(min_value=2, max_value=60))
    s1 = draw(st.integers(1, m - 1).filter(lambda s: math.gcd(s, m) == 1))
    s2 = d * draw(st.integers(min_value=1, max_value=m // d - 1))
    t = s2 * pow(s1, -1, m) % m
    w1 = draw(st.integers(min_value=1, max_value=40))
    w2 = draw(st.integers(min_value=w1, max_value=t * w1 - 1))
    lap = st.integers(min_value=0, max_value=2)
    gens, weights = [s1 + m * draw(lap), s2 + m * draw(lap)], [w1, w2]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        gens.append(draw(st.integers(min_value=1, max_value=3 * m)))
        weights.append(draw(st.integers(min_value=w2, max_value=w2 + 60)))
    return KnapsackInstance((m, *gens)), 0, weights


class TestNumpyReadouts:
    """The numpy kernel and readouts against the Python walk and lists."""

    @given(case=tree_cases())
    def test_threshold_decode(self, case):
        fast, scalar = _both_executions(*case, read=_readout)
        assert fast == scalar

    @given(case=tree_cases())
    @settings(max_examples=40)
    def test_threshold_decode_on_python_ints(self, case):
        # past the guard the numpy decode sums the loads as Python ints;
        # lowering the guard after the kernel has run forces that branch
        def read(table):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(knapgap.group, "_INT64_HEADROOM", 1)
                if not table._load_radix:
                    assert table._loads(table.modulus).dtype == object
                return _readout(table)

        fast, scalar = _both_executions(*case, read=read)
        assert fast == scalar
        assert type(fast[2]) is int and all(type(v) is int for v in fast[1])

    @given(case=shared_step_cases())
    def test_cycle_pass_on_shared_factors(self, case):
        spreads = []

        def counting(labels, index, step, w):
            spreads.append(math.gcd(step, len(labels)))
            return real(labels, index, step, w)

        real = knapgap.group._cycle_pass
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(knapgap.group, "_cycle_pass", counting)
            fast, scalar = _both_executions(*case, read=_readout)
        assert fast == scalar
        assert spreads[0] > 1

    @given(
        labels=st.lists(st.integers(0, 1 << 50), min_size=1, max_size=60),
        k=st.integers(min_value=1, max_value=1 << 20),
        limit=st.integers(min_value=0, max_value=1 << 51),
    )
    @example(labels=[5, 9, 13], k=4, limit=5)  # no label below the limit
    @example(labels=[7, 3, 11], k=4, limit=1 << 51)  # tied remainders
    def test_packed_maxima(self, labels, k, limit):
        import numpy as np

        got = _packed_maxima(np.array(labels, dtype=np.int64), k, limit)
        assert got == _packed_maxima(labels, k, limit)
        assert all(type(v) is int for v in got)
