"""The panel sampler against a plain reference: one SHAKE-128 squeeze
per agent and `bisect_right` on every agent's word. The sampler's table
and carry rules must choose the same cell for every word, so every panel
comes out the same, and must leave to `bisect_right` only the words that
their rule cannot settle from the top bytes."""

import hashlib
import random
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefcheck import (
    Dist,
    Model,
    construct_rationalization,
    simulate,
    simulate_panel,
)
from beliefcheck.cli import main
from beliefcheck.dist import group_beliefs
from beliefcheck.rationalize import reachable_cells
from beliefcheck.simulate import (
    _CARRY_SPLITS,
    _SPLIT,
    _agent_bits,
    _bucket_tables,
    _choose,
    _rule,
    _squeezes,
)
from genobs import random_observation

S2 = ("H", "L")
TOP = 1 << 56  # words per top-byte bucket
SECOND = 1 << 48  # words per second-byte step within a bucket


def reference_panel(model, n_agents, seed):
    """(draws, empirical items) by the plain rule: agent i squeezes
    SHAKE-128 of seed || i // 8192 up to its own word, reads word i % 8192
    big-endian and draws the first cell whose threshold exceeds it. A
    shorter squeeze is the start of a longer one, so stopping at the
    agent's word reads the same word as the chunk's full squeeze."""
    cells = reachable_cells(model)
    support, index = group_beliefs([c.posterior for c in cells])
    thresholds, running = [], Fraction(0)
    for c in cells:
        running += Fraction(c.obj_parts.total, c.obj_parts.den)
        thresholds.append(-(-running.numerator * 2**64 // running.denominator))
    key = seed.to_bytes(8, "big")
    draws, counts = [], [0] * len(support)
    for i in range(n_agents):
        squeeze = hashlib.shake_128(key + (i // 8192).to_bytes(8, "big"))
        word = int.from_bytes(squeeze.digest(8 * (i % 8192 + 1))[-8:], "big")
        j = bisect_right(thresholds, word)
        draws.append((cells[j].label, index[j]))
        counts[index[j]] += 1
    items = tuple(
        (Fraction(count, n_agents), post)
        for count, post in zip(counts, support)
        if count
    )
    return tuple(draws), items


def assert_same_as_reference(model, n_agents, seed):
    panel = simulate_panel(model, n_agents, seed)
    draws, items = reference_panel(model, n_agents, seed)
    assert panel.draws == draws
    assert panel.empirical.items == items


def cell_model(masses):
    """A two-state model with one signal cell per objective mass: cell j
    puts its mass on state H, and its subjective posterior is
    (j+1, 1)/(j+2), so the cells induce distinct posteriors."""
    omega = tuple("%s|c%d" % (s, j) for j in range(len(masses)) for s in S2)
    mu0 = []
    for j in range(len(masses)):
        mu0 += [Fraction(j + 1), Fraction(1)]
    total = sum(mu0)
    p_obj = []
    for mass in masses:
        p_obj += [Fraction(mass), Fraction(0)]
    return Model(
        states=S2,
        omega=omega,
        projection={w: w.split("|")[0] for w in omega},
        signal_partition={
            "c%d" % j: omega[2 * j : 2 * j + 2] for j in range(len(masses))
        },
        mu0=Dist(omega, tuple(w / total for w in mu0)),
        pObj=Dist(omega, tuple(p_obj)),
    )


def random_masses(rng, m):
    raw = [rng.randint(1, 1000) for _ in range(m)]
    return [Fraction(r, sum(raw)) for r in raw]


@st.composite
def thresholds_and_words(draw):
    """Sorted thresholds ending in 2^64, some on top-byte bucket edges
    k*2^56 or one off them, and words that include every threshold and
    bucket edge, one off each, and random words."""
    edges = st.integers(1, 255).flatmap(
        lambda k: st.sampled_from([k * TOP - 1, k * TOP, k * TOP + 1])
    )
    inner = st.one_of(edges, st.integers(0, 2**64 - 1))
    thresholds = sorted(draw(st.lists(inner, max_size=12))) + [2**64]
    words = set(draw(st.lists(st.integers(0, 2**64 - 1), max_size=40)))
    for t in thresholds[:-1] + [k * TOP for k in range(256)]:
        words.update(w for w in (t - 1, t, t + 1) if 0 <= w < 2**64)
    return thresholds, sorted(words)


def forced_rule(thresholds, carry):
    """The thresholds' `_rule` with its carry flag forced to `carry`, so
    that `_choose` draws by the carry rule or by the table rule."""
    tables, _, most = _rule(thresholds)
    return tables, carry, most


def choose(words, thresholds, carry, cuts=()):
    """`_choose` by the carry rule or the table rule on the words, 8
    big-endian bytes each, cut into squeezes after the agents at `cuts`:
    the chosen cells, the counts and the words it bisected."""
    data = b"".join(w.to_bytes(8, "big") for w in words)
    bounds = [0] + list(cuts) + [len(words)]
    squeezes = [data[8 * a : 8 * b] for a, b in zip(bounds, bounds[1:])]
    rule = forced_rule(thresholds, carry)
    bisected = []

    def counting(thresholds, word):
        bisected.append(word)
        return bisect_right(thresholds, word)

    simulate.bisect_right = counting
    try:
        chosen, counts = _choose(squeezes, len(words), thresholds, rule)
    finally:
        simulate.bisect_right = bisect_right
    return chosen, counts, bisected


def left_to_bisect(thresholds, words, carry):
    """The words that the table rule leaves to `bisect_right`, those of a
    top-byte bucket with a threshold inside; of those, the carry rule
    leaves only the words of a bucket with two or more thresholds inside
    and the words tied with their bucket's one threshold on the top two
    bytes."""
    left = set()
    for w in words:
        top = w >> 56
        inside = [t for t in thresholds if top * TOP < t < (top + 1) * TOP]
        if inside and (
            not carry or len(inside) > 1 or w >> 48 == inside[0] >> 48
        ):
            left.add(w)
    return left


def assert_choice_equals_bisect(thresholds, words, carry, cuts=()):
    chosen, counts, bisected = choose(words, thresholds, carry, cuts)
    expected = [bisect_right(thresholds, w) for w in words]
    assert list(chosen) == expected
    assert counts == [expected.count(j) for j in range(len(thresholds))]
    assert set(bisected) == left_to_bisect(thresholds, words, carry)


class TestTopByteTable:
    @settings(max_examples=300, deadline=None)
    @given(thresholds_and_words())
    def test_table_choice_equals_bisect(self, case):
        thresholds, words = case
        table = _bucket_tables(thresholds)[0]
        for w in words:
            cell = table[w >> 56]
            assert cell == _SPLIT or cell == bisect_right(thresholds, w)
        # bucket v is settled unless a threshold lies strictly inside it
        for v in range(256):
            inside = any(v * TOP < t < (v + 1) * TOP for t in thresholds)
            assert (table[v] == _SPLIT) == inside

    @settings(max_examples=300, deadline=None)
    @given(thresholds_and_words(), st.integers(0, 2**32))
    def test_chosen_cells_and_counts_equal_bisect(self, case, seed):
        thresholds, words = case
        rng = random.Random(seed)
        words = words + [rng.randrange(2**64) for _ in range(4 * len(words))]
        rng.shuffle(words)
        assert_choice_equals_bisect(thresholds, words, carry=False)

    @pytest.mark.parametrize(
        "thresholds, lo",
        [
            # cell 0 settles 192 buckets and splits bucket 192, yet every
            # word lies above its threshold, so it draws none of them
            ([192 * TOP + 5, 2**64], 192 * TOP + 5),
            # one reached cell settles all 256 buckets
            ([2**64], 0),
        ],
    )
    def test_counts_of_the_cell_that_settles_most_buckets(
        self, thresholds, lo
    ):
        rng = random.Random(1)
        words = [rng.randrange(lo, 2**64) for _ in range(1000)]
        words += [lo, lo + 1, 2**64 - 1]
        expected = [bisect_right(thresholds, w) for w in words]
        for carry in (False, True):
            codes, counts, _ = choose(words, thresholds, carry)
            assert list(codes) == expected
            assert counts == [
                expected.count(j) for j in range(len(thresholds))
            ]
            assert counts[0] == (len(words) if len(thresholds) == 1 else 0)


class TestSameAsReference:
    def test_worked_model(self, worked_example):
        model = construct_rationalization(worked_example)
        for seed in (0, 5, 2**64 - 1):
            for n_agents in (1, 7, 1001):
                assert_same_as_reference(model, n_agents, seed)

    @pytest.mark.parametrize("k", [2, 8, 32])
    def test_random_models(self, k):
        rng = random.Random(k)
        model = construct_rationalization(random_observation(rng, 4, k))
        for seed in (1, 302):
            assert_same_as_reference(model, 2003, seed)

    def test_masses_on_bucket_edges(self):
        # thresholds 128, 192 and 193 times 2^56, then 2^64: every cell
        # boundary is a top-byte bucket edge, so the table splits nothing
        masses = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 256)]
        masses.append(1 - sum(masses))
        model = cell_model(masses)
        cells = reachable_cells(model)
        assert len(cells) == 4
        for seed in (3, 4):
            assert_same_as_reference(model, 4001, seed)
        panel = simulate_panel(model, 4001, 3)
        assert {label for label, _ in panel.draws} == {"c0", "c1", "c2", "c3"}

    def test_masses_one_off_bucket_edges(self):
        # a threshold one above a bucket edge splits that bucket
        half = Fraction(2**63 + 1, 2**64)
        model = cell_model([half, 1 - half])
        assert_same_as_reference(model, 3001, 8)

    @pytest.mark.parametrize("m", [40, 200, 255, 256, 300])
    def test_many_cells(self, m):
        # 40, 200 and 255 cells split at least _CARRY_SPLITS top-byte
        # buckets, so the carry rule draws them; 256 or more do not fit the
        # one-byte codes, so every agent is bisected
        model = cell_model(random_masses(random.Random(m), m))
        assert len(reachable_cells(model)) == m
        for seed in (0, 9):
            assert_same_as_reference(model, 2001, seed)
        panel = simulate_panel(model, 2001, 9)
        assert panel.draws._chosen.itemsize == (1 if m < 256 else 4)


def traced_peak(model, n_agents):
    tracemalloc.start()
    try:
        simulate_panel(model, n_agents, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_draw_peaks_near_two_bytes_per_agent():
    # Per agent: the chosen cells in one byte and the panel's copy of them;
    # four bytes from 256 cells on. Each squeeze's words, lanes and bytes
    # are let go before the next squeeze is hashed and before the copy:
    # kept, they took 32 cells to 2.6-2.8 bytes per agent in this test.
    # The peak of a one-agent panel holds the model's cell table, whose
    # objects' size differs between Python versions (134 KB on 300 cells
    # on 3.11).
    n_agents = 200_000
    cases = []
    for k in (2, 8, 32):
        obs = random_observation(random.Random(k), 4, k)
        cases.append((construct_rationalization(obs), k, 2.5))
    cases.append((cell_model(random_masses(random.Random(300), 300)), 300, 6))
    for model, cells, bound in cases:
        assert len(reachable_cells(model)) == cells
        peak = traced_peak(model, n_agents) - traced_peak(model, 1)
        assert peak < bound * n_agents, (cells, peak / n_agents)


class TestThresholdFlag:
    @pytest.fixture
    def model_file(self, tmp_path, worked_example_file, capsys):
        path = str(tmp_path / "m.json")
        obs = str(worked_example_file)
        assert main(["rationalize", obs, "--out", path]) == 0
        capsys.readouterr()
        return path

    @pytest.mark.parametrize("value", ["nan", "inf", "Infinity", "-0.5", "-1"])
    def test_non_finite_or_negative_refused(self, model_file, capsys, value):
        argv = ["simulate", model_file, "--n", "10", "--seed", "1"]
        for json_flag in ([], ["--json"]):
            code = main(argv + ["--threshold", value] + json_flag)
            out, err = capsys.readouterr()
            assert code == 1
            assert out == ""
            assert err.startswith("error: --threshold must be")
            assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, shown",
        [
            (["--threshold", "-1e-3"], "-0.001"),
            (["--threshold", "-inf"], "-inf"),
            (["--thr", "-1E+2"], "-100.0"),
            # forms that reached the refusal before: unchanged
            (["--threshold=-1e-3"], "-0.001"),
            (["--threshold", "-0.5"], "-0.5"),
        ],
    )
    def test_negative_forms_get_the_one_line_refusal(
        self, model_file, capsys, flag, shown
    ):
        # argparse alone reads "-1e-3" and "-inf" as unknown options
        argv = ["simulate", model_file, "--n", "10", "--seed", "1"]
        assert main(argv + flag) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: --threshold must be a finite number at least 0, "
            "got %s\n" % shown
        )

    def test_missing_threshold_value_is_still_a_usage_error(
        self, model_file, capsys
    ):
        argv = ["simulate", model_file, "--n", "10", "--threshold", "--json"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "--threshold: expected one argument" in err

    def test_zero_is_accepted_and_never_met(self, model_file, capsys):
        argv = ["simulate", model_file, "--n", "10", "--seed", "1"]
        assert main(argv + ["--threshold", "0"]) == 2
        assert "within threshold 0: False" in capsys.readouterr().out

    def test_threshold_is_compared_exactly(self, model_file, capsys):
        # 20 agents at seed 0 give tv exactly 1/10, which lies below the
        # double nearest 0.1; float(tv) rounds to that double itself. Seed
        # 0 is the first seed from 0 up whose 20-agent panel's
        # tv_distance to the implied distribution equals Fraction(1, 10)
        argv = ["simulate", model_file, "--n", "20", "--seed", "0"]
        assert main(argv + ["--threshold", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "tv distance to model-implied distribution: 0.1\n" in out
        assert "within threshold 0.1: True" in out


@st.composite
def carry_cases(draw):
    """Sorted thresholds ending in 2^64: on or one off second-byte edges
    v*2^56 + u*2^48, crowded two to four into one top-byte bucket, in
    bucket 255, and anywhere. Words at and one off every threshold, tied
    with it on the top two bytes, at bucket 255's edges, and anywhere,
    shuffled and cut into squeezes at random agent counts."""
    edge = st.builds(
        lambda v, u, d: v * TOP + u * SECOND + d,
        st.integers(0, 255),
        st.integers(0, 255),
        st.sampled_from([-1, 0, 1]),
    )
    top_bucket = st.integers(255 * TOP, 2**64 - 1)
    inner = st.one_of(edge, top_bucket, st.integers(0, 2**64 - 1))
    thresholds = draw(st.lists(inner, max_size=40))
    for v in draw(st.lists(st.integers(0, 255), max_size=3)):
        inside = st.integers(v * TOP + 1, (v + 1) * TOP - 1)
        thresholds += draw(st.lists(inside, min_size=2, max_size=4))
    thresholds = sorted(t for t in thresholds if 0 <= t < 2**64) + [2**64]
    words = set(draw(st.lists(st.integers(0, 2**64 - 1), max_size=40)))
    words.update([0, 255 * TOP - 1, 255 * TOP, 2**64 - 1])
    for t in thresholds[:-1]:
        head = t - t % SECOND
        tied = head + draw(st.integers(0, SECOND - 1))
        words.update([t - 1, t, t + 1, head, head + SECOND - 1, tied])
    words = sorted(w for w in words if 0 <= w < 2**64)
    draw(st.randoms()).shuffle(words)
    cuts = sorted(draw(st.lists(st.integers(0, len(words)), max_size=3)))
    return thresholds, words, cuts


class TestCarryPass:
    """The carry rule chooses `bisect_right(thresholds, word)` for every
    word, and counts the agents of each cell from those choices."""

    @settings(max_examples=300, deadline=None)
    @given(carry_cases())
    def test_codes_and_counts_equal_bisect(self, case):
        thresholds, words, cuts = case
        assert_choice_equals_bisect(thresholds, words, True, cuts)

    @pytest.mark.parametrize(
        "inner",
        [
            # one threshold per bucket: on a second-byte edge at u = 1 and
            # u = 255, one above an edge at u = 0 and u = 255, and one
            # below an edge
            [3 * TOP + SECOND, 9 * TOP + 255 * SECOND],
            [3 * TOP + 1, 9 * TOP + 255 * SECOND + 1],
            [7 * TOP + 40 * SECOND - 1],
            # two and three thresholds inside one bucket
            [5 * TOP + 9 * SECOND, 5 * TOP + 9 * SECOND + 7],
            [5 * TOP + 1, 5 * TOP + 128 * SECOND, 6 * TOP - 1],
            # bucket 255
            [255 * TOP + 17 * SECOND + 3],
            [2**64 - 1],
            [255 * TOP + 1, 2**64 - SECOND],
        ],
    )
    def test_every_second_byte_of_a_split_bucket(self, inner):
        # every second byte of each threshold's bucket, with the lower
        # bytes at 0, one off the threshold's, equal to them and all 1s
        thresholds = inner + [2**64]
        words = set()
        for t in inner:
            head, low = t - t % TOP, t % SECOND
            for u in range(256):
                for r in {0, low - 1, low, low + 1, SECOND - 1}:
                    if 0 <= r < SECOND:
                        words.add(head + u * SECOND + r)
        words = sorted(words)
        assert_choice_equals_bisect(thresholds, words, True, [100, 600])

    @pytest.mark.parametrize(
        "thresholds",
        [[2**64], [128 * TOP, 192 * TOP, 193 * TOP, 2**64]],
    )
    def test_settled_buckets_are_never_bisected(self, thresholds, monkeypatch):
        # every bucket is settled, so no word is bisected, not even the
        # 1/256 of them whose second byte is 0xFF and whose lane's low byte
        # reads 0xFF
        n = 3 * 8192 + 5
        words = list(_agent_bits(0, 0, n))
        assert sum(w >> 48 & 0xFF == 0xFF for w in words) > 50
        expected = [bisect_right(thresholds, w) for w in words]

        def refuse(*args):
            raise AssertionError("bisect_right called")

        monkeypatch.setattr(simulate, "bisect_right", refuse)
        for carry in (False, True):
            rule = forced_rule(thresholds, carry)
            chosen, counts = _choose(_squeezes(0, 0, n), n, thresholds, rule)
            assert list(chosen) == expected
            assert counts == [
                expected.count(j) for j in range(len(thresholds))
            ]

    def test_panels_on_either_side_of_a_squeeze_edge(self):
        # 40 cells split 38 top-byte buckets, so the carry rule draws them
        model = cell_model(random_masses(random.Random(40), 40))
        cells = reachable_cells(model)
        thresholds, running = [], Fraction(0)
        for c in cells:
            running += Fraction(c.obj_parts.total, c.obj_parts.den)
            thresholds.append(ceil(running * 2**64))
        split = _bucket_tables(thresholds)[0].count(_SPLIT)
        assert split >= _CARRY_SPLITS
        support, index = group_beliefs([c.posterior for c in cells])
        for seed in (0, 2**64 - 1):
            draws, _ = reference_panel(model, 8193, seed)
            for n_agents in (1, 8191, 8192, 8193):
                panel = simulate_panel(model, n_agents, seed)
                assert panel.draws == draws[:n_agents]
                counts = Counter(j for _, j in draws[:n_agents])
                assert panel.empirical.items == tuple(
                    (Fraction(counts[j], n_agents), support[j])
                    for j in range(len(support))
                    if counts[j]
                )
