"""Finite-panel simulation of a model's objective signal process.

Each agent draws a signal cell from the objective distribution, updates by
Bayes to the cell's induced posterior, and the empirical distribution of
posteriors is compared to the model-implied one.

The panel stream: agent i's 64 uniform bits are the big-endian word
i mod 8192 of ``shake_128(seed.to_bytes(8, "big") + (i // 8192).to_bytes(8,
"big"))``, squeezed 8 bytes for each agent drawn from that chunk of 8192.
A shorter squeeze is the start of a longer one, so the bits depend only on
(seed, i). The XOF and the chunk size are part of the stream's definition.
An agent draws the first cell whose cumulative objective mass exceeds its
bits / 2^64. The draw runs one squeeze at a time. Below 256 reached cells
one of two rules settles most agents of a squeeze from the top bytes
sliced out of it, and the rest take `bisect_right` on their whole word,
read from the squeeze's words. The table rule is one `bytes.translate`
of the top bytes through a 256-entry table of the cell each top byte
settles; it leaves the agents whose top byte a cell boundary splits.
From 10 such split buckets on, the carry rule takes over: one 16-bit lane
per agent holds its bucket's first cell over its word's second byte, and
one integer addition carries a lane into the next cell where that byte
exceeds the second byte of the bucket's threshold. It leaves only the
words of a bucket with two or more thresholds and the words tied with
their bucket's threshold on the top two bytes. The cells' counts are
then taken in one C pass over the chosen bytes per cell. With 256 or
more reached cells every word takes `bisect_right`.

Drawing takes about 2.1 bytes per agent at its peak below 256 reached
cells and about 4.4 with more (tracemalloc at 10^6 agents). A panel keeps
each agent's chosen cell in one byte while the model reaches fewer than
256 cells, else in four; its `draws` are read through that array. A
panel of 10^7 agents takes about 0.35-0.45 s on a two-cell model,
0.6-0.75 s on an eight-cell one, 0.8-1.05 s on a 32-cell one and 4.6 s on
a 300-cell one (Python 3.11.7, one core of a shared 2-vCPU host).
"""

from __future__ import annotations

import hashlib
import re
import sys
from array import array
from bisect import bisect_right
from collections import Counter, namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import partial

from .dist import WeightedPosteriors, _joint_tol, group_beliefs
from .errors import MAX_AGENTS, StructuralError
from .rationalize import Model, _derived, reachable_cells

_SCALE = 1 << 64
_CHUNK = 8192  # agents per SHAKE-128 squeeze; part of the stream's definition
_WORD = 8  # bytes per agent's word
# The top-byte table's mark for a bucket that a threshold splits. Cell
# indices below it fit the table's one-byte codes.
_SPLIT = 255
# Finds _SPLIT in the table rule's cells, and both _SPLIT and a tie in the
# carry rule's lanes.
_MARK = re.compile(bytes([_SPLIT]))
# Split top-byte buckets from which the carry rule replaces the table rule.
# Its byte work per agent is fixed, the table rule's bisecting grows by
# about 1/256 of the agents per split bucket. On 10^5 agents (`_choose` on
# prebuilt squeezes, medians of 15, three runs, Python 3.11.7, shared
# 2-vCPU host; table vs carry) 7 split buckets took 3.8-4.4 vs 4.2-4.9 ms,
# 8 and 9 took the same time within 0.25 ms, 10 took 5.1-5.2 vs 4.3-5.1 ms,
# 12 took 5.7-6.2 vs 5.2-5.5 ms and 32 took 12.3-13.5 vs 6.5-7.2 ms, so a
# model of up to 10 cells keeps the table rule.
_CARRY_SPLITS = 10


def _squeezes(seed: int, lo: int, hi: int):
    """The words of agents [lo, hi), 8 big-endian bytes each, chunk by
    chunk: each chunk's squeeze as long as the agents drawn from it need,
    from the first agent at or above lo."""
    key = seed.to_bytes(8, "big")
    for chunk in range(lo // _CHUNK, -(-hi // _CHUNK)):
        start = chunk * _CHUNK
        # No local keeps a squeeze while the next one is hashed.
        yield hashlib.shake_128(key + chunk.to_bytes(8, "big")).digest(
            _WORD * min(hi - start, _CHUNK)
        )[_WORD * max(lo - start, 0) :]


def _words(squeezed: bytes) -> array:
    """A squeeze's big-endian words, read in place as integers."""
    words = array("Q", squeezed)
    if sys.byteorder == "little":
        words.byteswap()
    return words


def _agent_bits(seed: int, lo: int, hi: int) -> array:
    """64 uniform bits for each agent in [lo, hi), as a pure function of
    (seed, agent index): the panel stream of the module docstring."""
    return _words(b"".join(_squeezes(seed, lo, hi)))


def _bucket_tables(thresholds: list) -> tuple:
    """Three 256-entry tables on the top byte v of an agent's word, built
    in one pass over the sorted thresholds, O(cells + 256) steps:

    - the top-byte table: the cell that every word in [v*2^56,
      (v+1)*2^56) draws, or _SPLIT when a threshold falls inside that
      range, so that the word's other bytes decide;
    - the carry rule's codes: the bucket's first cell, or _SPLIT when two
      or more thresholds fall inside it;
    - the carry rule's addends: 255 - s for a bucket with one inner
      threshold t whose second byte is s, else 0. Added to a word's
      second byte b, it carries exactly when b > s, where the word lies
      above t; the sum's low byte reads 0xFF when b == s, a tie that the
      word's lower bytes decide."""
    table, codes, addends = bytearray(256), bytearray(256), bytearray(256)
    first = 0  # thresholds at or below the bucket: bisect_right's count
    for v in range(256):
        low, high = v << 56, (v + 1) << 56
        while thresholds[first] <= low:
            first += 1
        last = first
        while thresholds[last] < high:
            last += 1
        table[v] = first if last == first else _SPLIT
        codes[v] = first if last - first < 2 else _SPLIT
        if last - first == 1:
            addends[v] = 255 - (thresholds[first] >> 48 & 0xFF)
    return table, codes, addends


def _rule(thresholds: list) -> tuple:
    """How `_choose` draws below 256 cells, from the cells' thresholds:
    their `_bucket_tables`; whether the carry rule draws, as it does from
    _CARRY_SPLITS split top-byte buckets on; and the cell that settles
    the most top-byte buckets, which likely holds the most agents, so
    that `_cell_counts` takes its count as the rest."""
    tables = _bucket_tables(thresholds)
    table = tables[0]
    carry = table.count(_SPLIT) >= _CARRY_SPLITS
    return tables, carry, max(range(len(thresholds)), key=table.count)


def _cell_counts(chosen: bytearray, most: int, cells: int) -> list:
    """The number of agents in each of `cells` cells, from each agent's
    cell index in one byte. One C pass per cell, except the cell `most`:
    its count is the rest."""
    counts = [0 if j == most else chosen.count(j) for j in range(cells)]
    counts[most] = len(chosen) - sum(counts)
    return counts


def _choose(squeezes, n_agents: int, thresholds: list, rule) -> tuple:
    """The cell index of each of the n_agents agents whose words the
    squeezes hold, 8 big-endian bytes each, in an array of one byte each
    below 256 cells, else four, and the number of agents in each cell.

    `rule` is the thresholds' `_rule`, which `_plan` builds below 256
    cells, or None, which makes every word take `bisect_right`. With a
    rule, each squeeze's slice of the chosen bytes comes from its agents'
    top bytes, by the carry rule when the rule's carry flag is set, else
    by the table rule:

    - the table rule translates the top bytes through the top-byte table,
      which marks the agents of a split bucket with _SPLIT;
    - the carry rule reads one big-endian 16-bit lane per agent, the code
      of its bucket over its second byte, as one integer and adds the
      addends of the agents' top bytes to the low bytes; the sum's high
      bytes, carried where the threshold lies at or below the word, are
      the cells. A high byte _SPLIT (two or more thresholds in the bucket)
      or a low byte 0xFF (a tie on the top two bytes) marks a lane, except
      a low byte 0xFF in a bucket the table settles, where it is a second
      byte 0xFF and the cell is already right.

    Marked agents take `bisect_right` on their word, read from the
    squeeze's words, which are built only for a squeeze with a mark."""
    cells = len(thresholds)
    cell_of = partial(bisect_right, thresholds)
    if rule is None:
        chosen = array("I")
        for squeezed in squeezes:
            chosen.extend(map(cell_of, _words(squeezed)))
        tally = Counter(chosen)
        return chosen, [tally[j] for j in range(cells)]
    tables, carry, most = rule
    chosen, at = bytearray(n_agents), 0
    for squeezed in squeezes:
        part = _squeeze_cells(squeezed, tables, carry, cell_of)
        chosen[at : at + len(part)] = part
        at += len(part)
        # Let go of the squeeze before the next one is hashed and before
        # the chosen bytes are copied into the panel.
        del squeezed, part
    return array("B", chosen), _cell_counts(chosen, most, cells)


def _squeeze_cells(squeezed: bytes, tables: tuple, carry: bool, cell_of):
    """The chosen cells of the agents whose words `squeezed` holds, one
    byte each, by the rule `_choose` describes; `tables` are the
    `_bucket_tables` of the thresholds and `cell_of` bisects them. The
    squeeze's words, lanes and top bytes are freed on return."""
    table, codes, addends = tables
    tops = squeezed[::_WORD]
    if carry:
        size = 2 * len(tops)
        lane, addend = bytearray(size), bytearray(size)
        lane[::2] = tops.translate(codes)
        lane[1::2] = squeezed[1::_WORD]
        addend[1::2] = tops.translate(addends)
        lanes = int.from_bytes(lane, "big") + int.from_bytes(addend, "big")
        lanes = lanes.to_bytes(size, "big")
        cells = lanes[::2]
        marks = [m.start() >> 1 for m in _MARK.finditer(lanes)]
        marks = [i for i in marks if table[tops[i]] == _SPLIT]
    else:
        cells = tops.translate(table)
        marks = [m.start() for m in _MARK.finditer(cells)]
    if marks:
        cells, words = bytearray(cells), _words(squeezed)
        for i in marks:
            cells[i] = cell_of(words[i])
    return cells


class Draws(Sequence):
    """The agents' draws, (signal cell label, posterior index) per agent,
    read from the index of each agent's chosen cell. A read-only sequence
    equal to the tuple of its items."""

    __slots__ = ("_pairs", "_chosen")

    def __init__(self, pairs: list, chosen: array):
        self._pairs, self._chosen = pairs, chosen

    def __len__(self) -> int:
        return len(self._chosen)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._pairs.__getitem__, self._chosen[i]))
        return self._pairs[self._chosen[i]]

    def __iter__(self):
        return map(self._pairs.__getitem__, self._chosen)

    def __eq__(self, other) -> bool:
        if isinstance(other, Draws) and self._pairs == other._pairs:
            return self._chosen == other._chosen
        if isinstance(other, (Draws, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return "Draws(%r)" % (tuple(self),)


class PanelSample(namedtuple("PanelSample", "n_agents seed draws empirical")):
    """A simulated panel: per-agent draws, of (signal cell label,
    posterior index), and the empirical posterior distribution (weights
    are counts over n_agents, hence exact)."""

    __slots__ = ()


def simulate_panel(model: Model, n_agents: int, seed: int) -> PanelSample:
    """Draw an i.i.d. panel of agents from the model's objective signal
    distribution and record each agent's Bayes posterior.

    Cell selection compares the agent's 64 uniform bits from the panel
    stream (see the module docstring), read as an exact rational in
    [0, 1), against exact cumulative cell weights, so exact-mode models
    are sampled without float-boundary bias. The arguments are checked
    before the model is read: raises StructuralError unless n_agents and
    seed are integers (not bools), 0 < n_agents <= MAX_AGENTS (10^7) and
    0 <= seed < 2^64, then UndefinedUpdateError when an objectively
    reachable signal has zero subjective probability. The cells'
    thresholds accumulate in the order `reachable_cells(model)` lists
    them.

    Takes O(n_agents * cells) time beyond the model's cell table and
    its draw plan (see `_plan`), built once per model, where the work
    is byte work in C: one counting pass over the chosen bytes per cell,
    below 256 reached cells. Hashing is one squeeze, in C, per 8192
    agents. The work per agent in Python is `bisect_right` for the
    agents the top bytes leave over: about (cells - 1)/256 of them below
    10 split top-byte buckets; with more, about 1/65536 of them per
    split bucket plus those of buckets with two or more thresholds; all
    of them with 256 or more reached cells. Memory peaks near 2.1 bytes
    per agent below 256 reached cells and 4.4 with more; the panel keeps
    1 byte per agent below 256 reached cells, else 4. 10^7 agents take
    about 0.35-0.45 s on two cells and 0.8-1.05 s on 32.
    """
    for name, value in (("n_agents", n_agents), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise StructuralError(
                "%s must be an integer, got %r" % (name, value)
            )
    if n_agents <= 0:
        raise StructuralError("n_agents must be positive")
    if n_agents > MAX_AGENTS:
        raise StructuralError(
            "n_agents must be at most %d, got %d" % (MAX_AGENTS, n_agents)
        )
    if not 0 <= seed < _SCALE:
        raise StructuralError("seed must lie in [0, 2^64), got %d" % seed)

    support, cell_post_index, pairs, thresholds, rule = _derived(model, _plan)
    squeezes = _squeezes(seed, 0, n_agents)
    chosen, cell_counts = _choose(squeezes, n_agents, thresholds, rule)
    counts = [0] * len(support)
    for index, count in zip(cell_post_index, cell_counts):
        counts[index] += count
    drawn = [i for i, count in enumerate(counts) if count]
    empirical = WeightedPosteriors._from_vector(
        [counts[i] for i in drawn], n_agents, 0, [support[i] for i in drawn]
    )
    return PanelSample(n_agents, seed, Draws(pairs, chosen), empirical)


def _plan(model: Model) -> tuple:
    """What a panel draw needs of the model alone, built once per model
    (see `rationalize._derived`) in O(cells * (n + log cells)) time, over
    its reachable cells: the support of their posteriors, each cell's
    index into it and the draws' (label, index) pairs; the cells'
    thresholds; and the draw rule `_choose` takes, the thresholds'
    `_rule` below 256 cells, else None."""
    cells = reachable_cells(model)
    # Cells that induce the same posterior share an index into the support.
    support, cell_post_index = group_beliefs([c.posterior for c in cells])
    pairs = tuple([(c.label, i) for c, i in zip(cells, cell_post_index)])

    # bits/2^64 < p/q  <=>  bits*q < p*2^64  <=>  bits < ceil(p*2^64/q) for
    # integer bits, so the first cell whose threshold exceeds bits is drawn.
    # The reached masses sum to exactly 1: the last threshold is 2^64.
    thresholds, running, den = [], 0, model.pObj.den
    for c in cells:
        running += c.obj_parts.total
        thresholds.append(-(-running * _SCALE // den))
    rule = _rule(thresholds) if len(thresholds) <= _SPLIT else None
    return support, cell_post_index, pairs, thresholds, rule


def tv_distance(p: WeightedPosteriors, q: WeightedPosteriors) -> Fraction:
    """Total variation distance between two posterior distributions: half
    the L1 distance over the union of supports, with posteriors identified
    by `group_beliefs` within the larger of the two tolerances.

    Takes O((k_p + k_q) * n) time and memory for k_p and k_q posteriors
    over n states when both are exact; with a tolerance, the grouping
    sweep of `group_beliefs` adds its own cost."""
    if p.space != q.space:
        raise StructuralError(
            "posterior distributions must share an outcome space"
        )
    tol = _joint_tol(p.tol, q.tol)
    reps, groups = group_beliefs(p.beliefs + q.beliefs, tol)
    # Both weight vectors over the product of their denominators.
    diff = [0] * len(reps)
    weights = [w * q.den for w in p.nums] + [-w * p.den for w in q.nums]
    for w, g in zip(weights, groups):
        diff[g] += w
    return Fraction(sum(map(abs, diff)), 2 * p.den * q.den)
