import hashlib
import time
from fractions import Fraction

import pytest

from beliefcheck import (
    Dist,
    Model,
    StructuralError,
    UndefinedUpdateError,
    WeightedPosteriors,
    construct_rationalization,
    induced_observables,
    simulate_panel,
    tv_distance,
)
from beliefcheck.dist import group_beliefs
from beliefcheck.rationalize import reachable_cells
from beliefcheck.simulate import _agent_bits

S2 = ("H", "L")


def dist(space, *values):
    return Dist(space, tuple(Fraction(v) for v in values))


@pytest.fixture
def worked_model(worked_example):
    return construct_rationalization(worked_example)


class TestSimulatePanel:
    def test_determinism(self, worked_model):
        a = simulate_panel(worked_model, 500, seed=42)
        b = simulate_panel(worked_model, 500, seed=42)
        assert a == b
        c = simulate_panel(worked_model, 500, seed=43)
        assert a.draws != c.draws

    def test_single_agent_is_a_point_mass(self, worked_model, worked_example):
        panel = simulate_panel(worked_model, 1, seed=1)
        assert len(panel.empirical) == 1
        weight, belief = panel.empirical.items[0]
        assert weight == 1
        assert any(
            belief.matches(b) for b in worked_example.posteriors.beliefs
        )

    def test_degenerate_objective_distribution(self):
        prior = dist(S2, "1/2", "1/2")
        model = Model(
            states=S2,
            omega=S2,
            projection={s: s for s in S2},
            signal_partition={"all": S2},
            mu0=prior,
            pObj=prior,
        )
        panel = simulate_panel(model, 200, seed=9)
        assert len(panel.empirical) == 1
        assert panel.empirical.items[0][1].matches(prior)

    def test_no_agent_holds_phantom_posterior(self, worked_model, worked_example):
        panel = simulate_panel(worked_model, 2000, seed=5)
        phantom = dist(S2, 0, 1)
        targets = worked_example.posteriors.beliefs
        for _, belief in panel.empirical.items:
            assert not belief.matches(phantom)
            assert any(belief.matches(t) for t in targets)

    def test_draws_follow_the_bits(self, worked_model):
        # each agent draws the first cell whose cumulative objective mass
        # exceeds its bits / 2^64, and records that cell's (label, index)
        n = 1001
        panel = simulate_panel(worked_model, n, seed=3)
        assert len(panel.draws) == n
        cells = reachable_cells(worked_model)
        _, index = group_beliefs([c.posterior for c in cells])
        cumulative, running = [], Fraction(0)
        for c in cells:
            running += c.obj_mass
            cumulative.append(running)
        for draw, bits in zip(panel.draws, _agent_bits(3, 0, n)):
            u = Fraction(bits, 1 << 64)
            j = next(j for j, top in enumerate(cumulative) if u < top)
            assert draw == (cells[j].label, index[j])

    def test_seed_outside_64_bits_rejected(self, worked_model):
        # the seed keys the hash; wrapping would alias -1 and 2^64 onto
        # other seeds
        for seed in (-1, 1 << 64):
            with pytest.raises(StructuralError, match="seed"):
                simulate_panel(worked_model, 10, seed=seed)
        simulate_panel(worked_model, 10, seed=(1 << 64) - 1)

    @pytest.mark.parametrize("value", [1e3, 1.5, True, "10"])
    def test_non_integer_arguments_rejected(self, worked_model, value):
        # a float or string would fail inside the sampler with a raw
        # TypeError or AttributeError, and a bool would pass as 0 or 1
        for name, args in (("n_agents", (value, 0)), ("seed", (10, value))):
            with pytest.raises(StructuralError) as info:
                simulate_panel(worked_model, *args)
            assert str(info.value) == "%s must be an integer, got %r" % (
                name,
                value,
            )

    def test_convergence_single_seed(self, worked_model):
        start = time.monotonic()
        panel = simulate_panel(worked_model, 100_000, seed=123)
        elapsed = time.monotonic() - start
        _, implied = induced_observables(worked_model)
        assert float(tv_distance(panel.empirical, implied)) < 0.01
        assert elapsed < 5.0

    def test_undefined_update_detected(self):
        # the objective law charges a signal the subjective prior rules out
        mu0 = dist(S2, 1, 0)
        p_obj = dist(S2, "1/2", "1/2")
        model = Model(
            states=S2,
            omega=S2,
            projection={s: s for s in S2},
            signal_partition={"h": ("H",), "l": ("L",)},
            mu0=mu0,
            pObj=p_obj,
        )
        with pytest.raises(UndefinedUpdateError):
            simulate_panel(model, 10, seed=0)


class TestAgentBits:
    def test_golden_stream(self):
        # agent i reads word i % 8192 of the SHAKE-128 squeeze of
        # seed || i // 8192, squeezed 8 bytes per agent drawn from the chunk
        for seed in (0, (1 << 64) - 1):
            key = seed.to_bytes(8, "big")
            expected = []
            for i in range(10):
                squeeze = hashlib.shake_128(
                    key + (i // 8192).to_bytes(8, "big")
                ).digest(8 * 10)
                word = squeeze[8 * (i % 8192) : 8 * (i % 8192) + 8]
                expected.append(int.from_bytes(word, "big"))
            assert list(_agent_bits(seed, 0, 10)) == expected
            assert list(_agent_bits(seed, 3, 9)) == expected[3:9]


class TestSqueezeChunks:
    # agents per squeeze, and the bounds on either side of its edges
    CHUNK = 8192
    EDGES = (0, 5, 8189, 8191, 8192, 8193, 8200, 16383, 16384, 16387)

    def test_any_range_reads_the_same_words(self):
        for seed in (0, (1 << 64) - 1):
            for hi in self.EDGES:
                whole = _agent_bits(seed, 0, hi)
                for lo in self.EDGES:
                    if lo <= hi:
                        words = _agent_bits(seed, lo, hi)
                        assert words == whole[lo:]

    def test_no_word_repeats_across_chunks_or_seeds(self):
        # a reused squeeze would repeat a whole chunk of words
        seen = set()
        for seed in (0, 1, (1 << 64) - 1):
            for chunk in range(3):
                lo = chunk * self.CHUNK
                words = set(_agent_bits(seed, lo, lo + self.CHUNK))
                assert len(words) == self.CHUNK
                assert seen.isdisjoint(words)
                seen |= words

    def test_top_bytes_are_uniform(self):
        # 2^16 agents put 256 in each top-byte bucket on average, with a
        # standard deviation of about 16; a uniform source breaks either
        # bound with probability below 10^-6, and a repeated or skewed
        # squeeze breaks them by far
        n = 1 << 16
        for seed in (0, 1, (1 << 64) - 1):
            counts = [0] * 256
            for word in _agent_bits(seed, 0, n):
                counts[word >> 56] += 1
            assert max(abs(c - 256) for c in counts) <= 96
            assert sum((c - 256) ** 2 for c in counts) / 256 < 400


class TestTvDistance:
    def test_identical_distributions(self, worked_example):
        assert tv_distance(worked_example.posteriors, worked_example.posteriors) == 0

    def test_disjoint_supports(self):
        a = WeightedPosteriors(((Fraction(1), dist(S2, 1, 0)),))
        b = WeightedPosteriors(((Fraction(1), dist(S2, 0, 1)),))
        assert tv_distance(a, b) == 1

    def test_small_perturbation(self):
        p1 = dist(S2, "4/5", "1/5")
        p2 = dist(S2, 1, 0)
        p = WeightedPosteriors(((Fraction(1, 4), p1), (Fraction(3, 4), p2)))
        q = WeightedPosteriors(((0.26, p1), (0.74, p2)))
        assert abs(tv_distance(p, q) - 0.01) < 1e-12


def test_draws_read_as_the_tuple_they_replace(worked_model):
    """A panel keeps each agent's chosen cell in an array; its draws read
    as the tuple of (cell label, posterior index) pairs."""
    panel = simulate_panel(worked_model, 300, seed=9)
    draws = panel.draws
    as_tuple = tuple(draws)
    assert len(draws) == len(as_tuple) == 300
    assert draws == as_tuple and as_tuple == draws
    assert draws != as_tuple[:-1] and draws != list(as_tuple)
    assert draws[0] == as_tuple[0] and draws[-1] == as_tuple[-1]
    assert draws[5:9] == as_tuple[5:9]
    assert list(draws) == list(as_tuple)
    assert hash(draws) == hash(as_tuple)
    assert draws == simulate_panel(worked_model, 300, seed=9).draws
    with pytest.raises(TypeError):
        draws[0] = ("nu0+", 0)
