"""Pinned words of the panel sampler's bit stream.

Agent i's 64 bits are the big-endian word i mod 8192 of
``shake_128(seed.to_bytes(8, "big") + (i // 8192).to_bytes(8, "big"))``,
squeezed as far as the agents drawn from that chunk need. The pins hold
the first words at seeds 0 and 2^64 - 1 and the words on either side of
the first chunk edge (agents 8191 and 8192), so a SHA-3 backend that
squeezed differently, or a sampler that cut chunks elsewhere, shows up
here. A two-cell panel at both seeds checks the top bytes the sampler
slices from the same squeezes, a 40-cell panel the carry rule that reads
each word's second byte, and a 300-cell panel the words that the sampler
reads from each squeeze to bisect every agent. The panels are drawn by
`simulate_panel`, and a draw's cell index is read as a position in
`reachable_cells`. The file needs only the standard library and also
runs as a script, without site-packages:

    python -S tests/test_stream_pins.py
"""

import hashlib
import os
import sys

CHUNK = 8192  # agents per squeeze

#: (seed, agent) -> the agent's 64 bits
PINS = {
    (0, 0): 0x8F8E4F612E61FFB9,
    (0, 1): 0xD78C3EA707E37768,
    (0, 2): 0x05A4F86E1D7371F4,
    (0, 8191): 0x78B70F9823DBCB07,
    (0, 8192): 0x2F49B2B32F0D2D65,
    (0, 8193): 0xBB1BE2AC7D42A98E,
    (2**64 - 1, 0): 0x788B791423670CDB,
    (2**64 - 1, 1): 0xDBB16F8D339EFBE1,
    (2**64 - 1, 2): 0x2D43DFEEF28BED5A,
    (2**64 - 1, 8191): 0x53989EA3AE70A009,
    (2**64 - 1, 8192): 0x8A1F56AA8FE16EB8,
    (2**64 - 1, 8193): 0x5C15E95E4FA13A7D,
}


def squeezed_word(seed, i):
    """Agent i's word from a full squeeze of its chunk."""
    key = seed.to_bytes(8, "big") + (i // CHUNK).to_bytes(8, "big")
    squeeze = hashlib.shake_128(key).digest(8 * CHUNK)
    return int.from_bytes(squeeze[8 * (i % CHUNK) : 8 * (i % CHUNK) + 8], "big")


def test_hashlib_squeezes_the_pinned_words():
    for (seed, i), word in PINS.items():
        assert squeezed_word(seed, i) == word


def test_sampler_reads_the_pinned_words():
    from beliefcheck.simulate import _agent_bits

    for seed in (0, 2**64 - 1):
        pinned = {i: word for (s, i), word in PINS.items() if s == seed}
        whole = _agent_bits(seed, 0, 8194)
        edge = _agent_bits(seed, 8191, 8193)
        for i, word in pinned.items():
            assert whole[i] == word
        assert list(edge) == [pinned[8191], pinned[8192]]


def test_two_cell_panel_reads_the_pinned_top_bits():
    # Two cells of mass 1/2 put the threshold at 2^63, on a top-byte
    # bucket edge, so the top-byte table settles every agent from the top
    # bytes sliced out of the squeezes: agent i's cell is its word's top
    # bit.
    from fractions import Fraction

    from beliefcheck import Dist, Model
    from beliefcheck.rationalize import reachable_cells
    from beliefcheck.simulate import simulate_panel

    states = ("H", "L")
    half = Dist(states, (Fraction(1, 2), Fraction(1, 2)))
    model = Model(
        states=states,
        omega=states,
        projection={s: s for s in states},
        signal_partition={"h": ("H",), "l": ("L",)},
        mu0=half,
        pObj=half,
    )
    cells = reachable_cells(model)
    for seed in (0, 2**64 - 1):
        panel = simulate_panel(model, 8194, seed)
        for (s, i), word in PINS.items():
            if s == seed:
                assert panel.draws[i][0] == cells[word >> 63].label


def carry_thresholds():
    """40 cells' thresholds, times 2^64, that split the pinned words'
    buckets, plus one inside each of 27 other buckets so that the carry
    pass draws the panel. Around the pinned words they lie one above a
    word on its top two bytes (a second-byte tie) or on the word itself,
    on the second-byte edge at or above a word, one below an edge, just
    inside a bucket, and two in bucket 0x78, which holds two words."""
    inner = [
        0x8F8E4F612E61FFBA,  # one above (0, 0): a tie on 0x8F8E
        0xD78C3EA707E37768,  # (0, 1) itself, which draws the next cell
        0x05A5000000000000,  # the edge above (0, 2)
        0x7880000000000000,  # two in bucket 0x78: (2^64 - 1, 0) lies
        0x78A0000000000001,  # between them, (0, 8191) above both
        0x2F49000000000000,  # the edge of (0, 8192)'s second byte
        0xBB10000000000005,
        0xDBB1FFFFFFFFFFFF,  # one below an edge, above (2^64 - 1, 1): a tie
        0x2D43DFEEF28BED59,  # one below (2^64 - 1, 2): a tie
        0x5300000000000001,  # just inside the bucket
        0x8A1FFFFFFFFFFFFF,  # above (2^64 - 1, 8192): a tie
        0x5C15E95E4FA13A7E,  # one above (2^64 - 1, 8193): a tie
    ]
    pinned = {word >> 56 for word in PINS.values()}
    spare = [v for v in range(1, 256) if v not in pinned]
    inner += [(v << 56) + (v << 40) + 12345 for v in spare[::8][:27]]
    return sorted(inner) + [2**64]


def threshold_model(thresholds):
    """A model with one signal cell per threshold, times 2^64, whose
    objective mass is the gap below it."""
    from fractions import Fraction

    from beliefcheck import Dist, Model

    masses = [
        Fraction(hi - lo, 2**64)
        for lo, hi in zip([0] + thresholds, thresholds)
    ]
    omega = tuple("w%d" % j for j in range(len(masses)))
    return Model(
        states=("H", "L"),
        omega=omega,
        projection={w: "HL"[j % 2] for j, w in enumerate(omega)},
        signal_partition={"c%d" % j: (w,) for j, w in enumerate(omega)},
        mu0=Dist(omega, tuple(Fraction(1, len(omega)) for _ in omega)),
        pObj=Dist(omega, tuple(masses)),
    )


def assert_panel_bisects_the_pinned_words(thresholds):
    from bisect import bisect_right

    from beliefcheck.rationalize import reachable_cells
    from beliefcheck.simulate import simulate_panel

    model = threshold_model(thresholds)
    cells = reachable_cells(model)
    assert len(cells) == len(thresholds)
    for seed in (0, 2**64 - 1):
        panel = simulate_panel(model, 8194, seed)
        for (s, i), word in PINS.items():
            if s == seed:
                cell = cells[bisect_right(thresholds, word)]
                assert panel.draws[i][0] == cell.label


def test_carry_pass_reads_the_pinned_words():
    from beliefcheck.simulate import _CARRY_SPLITS, _SPLIT, _bucket_tables

    thresholds = carry_thresholds()
    assert len(thresholds) == 40
    assert _bucket_tables(thresholds)[0].count(_SPLIT) >= _CARRY_SPLITS
    assert_panel_bisects_the_pinned_words(thresholds)


def test_many_cell_panel_reads_the_pinned_words():
    # 300 cells do not fit one-byte codes, so every agent's word is read
    # from its squeeze's words and bisected. Each pinned word is itself a
    # threshold, and so is the word one above it: a word read in the
    # wrong byte order, or from the wrong agent, draws another cell.
    pinned = set(PINS.values()) | {word + 1 for word in PINS.values()}
    spread = {(j << 64) // 276 for j in range(1, 276)}
    thresholds = sorted(pinned | spread) + [2**64]
    assert len(thresholds) == 300
    assert_panel_bisects_the_pinned_words(thresholds)


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(here, os.pardir, "src"))
    test_hashlib_squeezes_the_pinned_words()
    test_sampler_reads_the_pinned_words()
    test_two_cell_panel_reads_the_pinned_top_bits()
    test_carry_pass_reads_the_pinned_words()
    test_many_cell_panel_reads_the_pinned_words()
    print("stream pins hold on Python %s" % sys.version.split()[0])
