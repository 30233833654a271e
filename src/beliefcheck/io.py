"""JSON file formats for observations and models.

Numbers are serialized as strings so exact rationals survive the round
trip. The "mode" field says how they are read: exactly, or rounded to the
nearest float, which the `Dist` they go into keeps exactly as float-origin
data. Either way a number is read into a reduced (numerator, denominator)
pair of ints, and a `Dist` is built from those pairs with no `Fraction` in
between. Numbers are written by origin, from a `Dist`'s integer weights:
exact values as "p/q", float-origin ones as floats, by `_number_texts`,
which also formats every number the CLI prints. See docs/format.md for
the schemas.

The loaders read a file's numbers through tables of their distinct
strings (`_texts`): each distinct string is parsed once per file. In float
mode a decimal in ASCII digits, as this package writes floats, is read
with one float() after a few string-method checks; every other text has
its exponent checked against MAX_EXPONENT and is read through int or
Fraction (`_number`). A model's distribution takes one lcm over the
denominators of its distinct values, scales each distinct value once and
maps its row back in C; an observation's prior, beliefs and weights form
one value list with one table, and each distribution is scaled from its
slice of the pairs. A row whose keys are not its space in order is
reordered. The omega entries are checked as three columns. Only a file
that holds a bad entry is gone through entry by entry, so that the first
bad entry in file order raises. An error is located at its file, field,
entry and state.

Files are written byte for byte in the layout of `json.dump(...,
indent=2)` of the file's JSON object plus a final newline: one
fixed-schema writer per file kind joins the strings around json's C string
encoder and formats each distinct numerator of a distribution once. The
writers refuse what the loaders would refuse to read back: a mode outside
MODES, a label that is not a string, and an exact number whose p or q
has a run of more than MAX_DIGITS digits, which the CLI refuses to print
too. They list each signal cell's indices in omega order, as the loader
requires, so a model's bytes do not depend on the order in which a cell
lists its outcomes, nor on whether it is a tuple, a list or a set.
`rationalize --json` prints the same bytes as the file `--out` writes.
A model file's fixed text, its states, omega entries, partition and
keys, is kept with the layout of a constructed model's shape and filled
with each model's numbers (see `_model_file`).
Every file goes through `_write`, which overwrites an existing file in
place and cuts it to the length written: truncating it to zero first, as
open(path, "w") does, waits on ext4 for the flush of the file's last
write, and rewriting a file is the common case of a tool run over many
agents.
"""

from __future__ import annotations

import json
import os
import re
import stat
from fractions import Fraction
from itertools import chain, repeat
from math import gcd
from operator import itemgetter

from .dist import _TOL, Dist, Observation, WeightedPosteriors, _shown, _vector
from .errors import FormatError, StructuralError
from .rationalize import Model, _kept_layout

MODES = ("rational", "float")

#: Largest decimal exponent magnitude accepted: Python's default limit on
#: int digits, which already bounds the "p/q" form.
MAX_EXPONENT = 4300
#: Most digits int() reads from a string by Python's default: a number
#: with a longer run of digits is refused in both modes.
MAX_DIGITS = 4300
# The exponent's digits after its leading zeros. The pattern splits a run
# of digits one way only, so it matches in linear time.
_EXPONENT = re.compile(r"e[-+]?[0_]*((?:[^\D0][\d_]*)?)\s*\Z", re.I)


class _Misplaced(Exception):
    """A malformed value, raised below the code that knows its location.
    The first caller that knows it turns this into a FormatError located
    at that location followed by `suffix`, so no location string is
    formatted unless an error is raised."""

    def __init__(self, message: str, suffix: str = ""):
        super().__init__(message)
        self.message = message
        self.suffix = suffix

    def at(self, where: str) -> FormatError:
        return FormatError("%s%s: %s" % (where, self.suffix, self.message))


def _over_cap(text: str) -> bool:
    """Whether `text` ends in a decimal exponent above MAX_EXPONENT in
    magnitude."""
    exponent = _EXPONENT.search(text)
    digits = exponent.group(1).replace("_", "") if exponent else ""
    # Five or more digits exceed the cap, and int() refuses over 4300.
    return len(digits) > 4 or int(digits or 0) > MAX_EXPONENT


def _number(raw, mode: str) -> tuple:
    """A number as a reduced (numerator, denominator) pair: its exact value
    in rational mode, its nearest float's in float mode. parse_number
    without a location; raises _Misplaced."""
    if type(raw) is str:
        text = raw
    elif isinstance(raw, bool):
        raise _Misplaced("expected a number, got a boolean")
    else:
        text = str(raw)
    if (
        mode == "float"
        and "/" not in text
        and text.isascii()
        and "_" not in text
        and text.strip() == text
        and not text.isdigit()
        and len(text) <= MAX_DIGITS
        and not (("e" in text or "E" in text) and _over_cap(text))
    ):
        # An ASCII text with no underscore and no space around it that
        # float() reads is a decimal, "inf", "infinity" or "nan", and a
        # decimal's exponent is within the cap here: float() rounds it as
        # float(Fraction(text)) does, both correctly. A value no float
        # holds takes the general path below, which refuses "inf" and
        # "nan" as no number and a decimal out of range as such (n / d
        # overflows where float() does), as it reads "p/q" and "p" in
        # digits through int and every other text. So does a text longer
        # than MAX_DIGITS, whose digits int() may refuse where float()
        # would read them.
        try:
            return float(text).as_integer_ratio()
        except (ValueError, OverflowError):
            pass
    # "p/q" and "p" in ASCII digits, with a nonzero q, are read through
    # int; a sign, space, underscore, exponent or any other digit takes
    # Fraction's own parser, as does every other form.
    num, slash, den = text.partition("/")
    plain = (
        num.isascii()
        and num.isdigit()
        and (not slash or den.isascii() and den.isdigit() and den.strip("0"))
    )
    if not plain and _over_cap(text):
        raise _Misplaced(
            "decimal exponent above %d in magnitude" % MAX_EXPONENT
        )
    try:
        if plain:
            n, d = int(num), int(den or 1)
        else:
            n, d = Fraction(text).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as err:
        if str(err).startswith("Exceeds the limit"):  # int()'s digit limit
            raise _Misplaced(
                "number has a run of more than %d digits" % MAX_DIGITS
            ) from None
        raise _Misplaced(
            "%r is not a valid number (use 'p/q' or a decimal)" % (raw,)
        ) from None
    if mode == "rational":
        g = gcd(n, d)
        return n // g, d // g
    try:
        return (n / d).as_integer_ratio()
    except OverflowError:
        raise _Misplaced(
            "%r is out of range for float mode" % (raw,)
        ) from None


def parse_number(raw, mode: str, where: str) -> "Fraction | float":
    """Parse a number string ("p/q" or decimal) or a bare JSON number: a
    Fraction in rational mode, a float in float mode."""
    try:
        n, d = _number(raw, mode)
    except _Misplaced as err:
        raise err.at(where) from None
    return Fraction(n, d) if mode == "rational" else n / d


def _float_tol(mode: str, numbers) -> Fraction:
    """The tolerance of numbers read in `mode`: TOL for float mode, unless
    there are none (then every weight is an exact 0)."""
    return _TOL if mode == "float" and numbers else 0


def _texts(values, mode: str, seen: dict) -> tuple:
    """(texts, distinct): `values` as number texts and a dict of their
    distinct texts, in order of first appearance. `seen` maps the texts
    parsed before in the same file to their reduced (numerator,
    denominator) pairs; each distinct text not in it is parsed once and
    added. A bare JSON number is read as its text, as _number reads it. A
    value that is not a string or a number, or a text that does not parse,
    raises _Misplaced, unlocated: the caller walks the values to name the
    first bad one."""
    try:
        distinct = dict.fromkeys(values)
    except TypeError:  # a list or an object
        raise _Misplaced("not a number") from None
    if not set(map(type, distinct)) <= {str}:
        # true, 1 and 1.0 are equal keys, so every value's type is checked
        if not set(map(type, values)) <= {str, int, float}:
            raise _Misplaced("not a number")
        values = list(map(str, values))
        distinct = dict.fromkeys(values)
    for text in distinct.keys() - seen.keys():
        seen[text] = _number(text, mode)
    return values, distinct


def _numbers(raw: dict, mode: str, seen: dict) -> tuple:
    """The values of `raw` as integer numerators over the lcm of their
    reduced denominators: (numerators, lcm). Each distinct value is parsed
    once per file (see _texts) and scaled once. A bad value, the first in
    order, is _Misplaced at ".<key>"."""
    try:
        texts, distinct = _texts(raw.values(), mode, seen)
    except _Misplaced:
        for key, value in raw.items():
            try:
                _number(value, mode)
            except _Misplaced as err:
                raise _Misplaced(err.message, ".%s" % key) from None
        raise AssertionError("_texts refused values _number accepts")
    nums, den = _vector(list(map(seen.__getitem__, distinct)))
    return list(map(dict(zip(distinct, nums)).__getitem__, texts)), den


# Forms of a float-origin number, a whole number and a fraction, between
# no quotes or between JSON's.
_FORMS = {"": ("%r", "%d", "%d/%d"), '"': ('"%r"', '"%d"', '"%d/%d"')}


def _number_texts(nums, den: int, tol, quote: str = "") -> list:
    """The numbers nums[i] / den as written, each between two `quote`s
    ("" or '"'): "p/q" in lowest terms, or "p" when q is 1, for exact data
    (tol 0), the repr of the nearest float for float-origin data. Each
    distinct numerator is formatted once. An exact number whose p or q
    has more digits than str() of an int gives, which the loaders would
    refuse, raises StructuralError."""
    real, whole, part = _FORMS[quote]
    text = {}  # numerator -> its text
    if tol:
        for n in nums:
            if n not in text:
                text[n] = real % (n / den)
    else:
        try:
            for n in nums:
                if n not in text:
                    g = gcd(n, den)
                    p, q = n // g, den // g
                    text[n] = whole % p if q == 1 else part % (p, q)
        except ValueError:  # "%d" refuses more than 4300 digits by default
            raise StructuralError(
                "cannot write %s: its p/q form has a run of more than %d "
                "digits" % (_shown(n, den, 0), MAX_DIGITS)
            ) from None
    return list(map(text.__getitem__, nums))


def format_number(x: Fraction, tol: Fraction) -> str:
    """`x` as written: "p/q" for exact data (tol 0), the repr of the
    nearest float for float-origin data; `_number_texts` of one number."""
    num, den = x.as_integer_ratio()
    return _number_texts((num,), den, tol)[0]


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise FormatError("%s: missing required field %r" % (where, key))
    return data[key]


def _field(entry: dict, key: str):
    """_require for an entry whose location its caller formats."""
    if key not in entry:
        raise _Misplaced("missing required field %r" % key)
    return entry[key]


def read_json(path):
    """json.load of a file. Invalid JSON raises json.JSONDecodeError, as
    json.load does; an integer literal longer than Python's int digit
    limit (a plain ValueError), a file that is not UTF-8
    (UnicodeDecodeError) or nesting too deep for the decoder
    (RecursionError) raises FormatError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as err:
        raise FormatError("%s: unreadable JSON: %s" % (path, err)) from None


def _invalid_json(path, err: json.JSONDecodeError) -> FormatError:
    """The error of a file that is not JSON, located at its line and
    column, as every file's is."""
    return FormatError(
        "%s: invalid JSON at line %d column %d: %s"
        % (path, err.lineno, err.colno, err.msg)
    )


def _load_json(path) -> dict:
    try:
        data = read_json(path)
    except json.JSONDecodeError as err:
        raise _invalid_json(path, err) from None
    if not isinstance(data, dict):
        raise FormatError("%s: top-level value must be an object" % path)
    return data


def _parse_mode(data: dict, where: str) -> str:
    mode = data.get("mode", "rational")
    if mode not in MODES:
        raise FormatError(
            "%s: field 'mode' must be one of %s, got %r"
            % (where, "/".join(MODES), mode)
        )
    return mode


def _parse_states(data: dict, where: str) -> tuple:
    states = _require(data, "states", where)
    if (
        not isinstance(states, list)
        or not states
        or not all(isinstance(s, str) and s for s in states)
    ):
        raise FormatError(
            "%s: field 'states' must be a non-empty list of non-empty "
            "strings" % where
        )
    if len(set(states)) != len(states):
        raise FormatError("%s: field 'states' has duplicate labels" % where)
    return tuple(states)


def _over(space: tuple, labels: tuple, nums, den: int, mode: str, index):
    """A Dist over `space` from numerators over `den` keyed by `labels`,
    a subset of the space, whose label index is `index`: a label left out
    weighs 0."""
    if labels != space:
        nums = list(map(dict(zip(labels, nums)).get, space, repeat(0)))
    return Dist._from_vector(space, nums, den, _float_tol(mode, labels), index)


def _parse_dist(
    raw, space: tuple, index: dict, mode: str, seen: dict, what, suffix=""
) -> Dist:
    """A distribution over `space`, a space of `what` labels whose label
    index is `index`; a bad one is _Misplaced at `suffix`."""
    if not isinstance(raw, dict):
        raise _Misplaced(
            "expected an object mapping %s labels to numbers" % what, suffix
        )
    if not index.keys() >= raw.keys():
        raise _Misplaced(
            "unknown %s labels %s"
            % (what, ", ".join(sorted(raw.keys() - index.keys()))),
            suffix,
        )
    try:
        nums, den = _numbers(raw, mode, seen)
    except _Misplaced as err:
        raise _Misplaced(err.message, suffix + err.suffix) from None
    try:
        return _over(space, tuple(raw), nums, den, mode, index)
    except StructuralError as err:
        raise _Misplaced(str(err), suffix) from None


_BELIEF, _WEIGHT = itemgetter("belief"), itemgetter("weight")


def _observation_rows(data: dict, states: tuple, index: dict, mode: str):
    """The prior, the posterior weights as (numerators, lcm) and the
    beliefs of an observation whose every entry is well formed. The
    prior's, the beliefs' and the weights' values form one list in which
    each distinct string is parsed once (see _texts), and each row's
    numerators, and the weights', are scaled from its slice of the pairs.
    A bad entry raises _Misplaced, StructuralError, LookupError or
    TypeError, unlocated."""
    raw_posts = data["posteriors"]
    if type(raw_posts) is not list or not raw_posts:
        raise _Misplaced("expected a non-empty list")
    rows = [data["prior"], *map(_BELIEF, raw_posts)]
    weights = list(map(_WEIGHT, raw_posts))
    if set(map(type, rows)) != {dict}:
        raise _Misplaced("expected an object")
    labels = list(map(tuple, rows))
    for row in labels:
        if row != states and not index.keys() >= set(row):
            raise _Misplaced("unknown labels")
    values = [*chain.from_iterable(map(dict.values, rows)), *weights]
    seen = {}
    pairs = list(map(seen.__getitem__, _texts(values, mode, seen)[0]))
    dists, at = [], 0
    for row in labels:
        end = at + len(row)
        nums, den = _vector(pairs[at:end])
        dists.append(_over(states, row, nums, den, mode, index))
        at = end
    return dists[0], _vector(pairs[at:]), dists[1:]


def _walk_observation(data: dict, states: tuple, index: dict, mode, where):
    """Raise the error of an observation's first bad entry in file order,
    reading one entry at a time."""
    seen = {}
    try:
        _parse_dist(
            _require(data, "prior", where), states, index, mode, seen, "state"
        )
    except _Misplaced as err:
        raise err.at(where + ":prior") from None
    raw_posts = _require(data, "posteriors", where)
    if not isinstance(raw_posts, list) or not raw_posts:
        raise FormatError(
            "%s: field 'posteriors' must be a non-empty list" % where
        )
    try:
        for i, entry in enumerate(raw_posts):
            if not isinstance(entry, dict):
                raise _Misplaced("expected an object")
            raw_weight = _field(entry, "weight")
            try:
                _number(raw_weight, mode)
            except _Misplaced as err:
                raise _Misplaced(err.message, ".weight") from None
            raw_belief = _field(entry, "belief")
            _parse_dist(
                raw_belief, states, index, mode, seen, "state", ".belief"
            )
    except _Misplaced as err:
        raise err.at("%s:posteriors[%d]" % (where, i)) from None


def load_observation(path) -> tuple[Observation, str]:
    """Read an observation file; returns (observation, mode). Takes time
    and memory linear in the file's size, plus one parse per distinct
    number string in the file (a float-mode decimal takes one float()
    after a few string-method checks), one lcm over each distribution's
    denominators, and one grouping of the beliefs (see group_beliefs):
    one dict pass on exact data, and on float-origin data one projection
    per belief and one sort, which suffice when no two beliefs come
    within reach. Only a file with a bad entry is read again, entry by
    entry, to name the first bad entry in file order."""
    data = _load_json(path)
    where = str(path)
    mode = _parse_mode(data, where)
    states = _parse_states(data, where)
    index = {s: i for i, s in enumerate(states)}
    try:
        prior, (nums, den), beliefs = _observation_rows(
            data, states, index, mode
        )
    except (_Misplaced, StructuralError, LookupError, TypeError):
        _walk_observation(data, states, index, mode, where)
        raise AssertionError("the rows refused entries the walk accepts")
    try:
        posteriors = WeightedPosteriors._from_vector(
            nums, den, _float_tol(mode, nums), beliefs
        )
        obs = Observation(prior, posteriors)
    except StructuralError as err:
        raise FormatError("%s: %s" % (where, err)) from None
    return obs, mode


# The writers below lay files out exactly as json.dumps(..., indent=2)
# lays out the file's object, with strings escaped by json's own C encoder.
_encode = json.encoder.encode_basestring_ascii


def _block(items: list, depth: int, brackets: str) -> str:
    """Rendered items laid out as json.dumps(..., indent=2) lays out a
    list (brackets "[]") or an object ("{}", items '"key": value') nested
    `depth` levels deep."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return "%s%s%s\n%s%s" % (
        brackets[0], pad, ("," + pad).join(items), "  " * depth, brackets[1]
    )


def _weights_text(dist, tol: Fraction) -> list:
    """The weights of a Dist or WeightedPosteriors as JSON strings,
    `_number_texts` of its integer numerators quoted: digits, signs, "/",
    "." or "e", which json escapes to themselves."""
    return _number_texts(dist.nums, dist.den, tol, '"')


def _members(keys, texts: list, depth: int) -> str:
    """A distribution as a JSON object keyed by its encoded labels, from
    its numbers as `_number_texts` writes them, unquoted."""
    return _block(list(map('%s: "%s"'.__mod__, zip(keys, texts))), depth, "{}")


def _dist_text(keys, dist: Dist, depth: int, tol: Fraction) -> str:
    """A distribution as a JSON object keyed by its encoded labels."""
    return _members(keys, _number_texts(dist.nums, dist.den, tol), depth)


def _document(fields: list) -> str:
    """A file's text: a top-level object of (name, rendered value) pairs."""
    return _block(['"%s": %s' % field for field in fields], 0, "{}") + "\n"


def _writable(mode: str, *labels) -> None:
    """Raise StructuralError unless `mode` is one of MODES and every label
    in the groups `labels` is a string, as the loaders require."""
    if mode not in MODES:
        raise StructuralError(
            "cannot write mode %r: not one of %s" % (mode, "/".join(MODES))
        )
    if not all(map(isinstance, chain(*labels), repeat(str))):
        bad = next(x for x in chain(*labels) if not isinstance(x, str))
        raise StructuralError("cannot write label %r: not a string" % (bad,))


def observation_json(obs: Observation, mode: str) -> str:
    """An observation file's text, the layout of json.dumps(..., indent=2)
    followed by a newline; see docs/format.md."""
    _writable(mode, obs.space)
    states = list(map(_encode, obs.space))
    weights = _weights_text(obs.posteriors, obs.tol)
    posteriors = [
        '{\n      "weight": %s,\n      "belief": %s\n    }'
        % (w, _dist_text(states, b, 3, obs.tol))
        for w, b in zip(weights, obs.posteriors.beliefs)
    ]
    return _document(
        [
            ("mode", _encode(mode)),
            ("states", _block(states, 1, "[]")),
            ("prior", _dist_text(states, obs.prior, 1, obs.tol)),
            ("posteriors", _block(posteriors, 1, "[]")),
        ]
    )


# O_BINARY (Windows only) leaves newline handling to the text writer alone.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write(path, text: str) -> None:
    """Write `text` to `path` as open(path, "w") does, with the same bytes,
    file and errors, except that an existing file is overwritten in place
    and then cut to the length written, not truncated to zero first. On
    ext4 a file truncated to zero is flushed when it is closed, and
    truncating a file whose last write is still being flushed waits for
    that flush: rewriting a 6.4 KB file 3 ms apart took 117-258 us that
    way against 15-103 us in place (medians of five runs of 300 rewrites,
    Python 3.11.7 on a shared 2-vCPU virtual machine). A pipe, a terminal
    or /dev/null is not cut: it has no length to cut to. Like open(path,
    "w"), the write is not atomic; an interrupted one leaves the new bytes
    over the old file's, not a cut file."""
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    with open(fd, "w") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def save_observation(obs: Observation, path, mode: str = "rational") -> None:
    """Write an observation file. Takes time and memory linear in the
    file's size, plus one formatting per distinct numerator of each
    distribution. An existing file is overwritten in place and cut to
    length, not truncated first (see `_write`)."""
    _write(path, observation_json(obs, mode))


def _model_numbers(model: Model) -> list:
    """mu0's and pObj's numbers as a model file writes them, in omega
    order."""
    tol = model.tol
    return [_number_texts(d.nums, d.den, tol) for d in (model.mu0, model.pObj)]


# Marks where a value written on each call goes in a model file's fixed
# text: a NUL, which json escapes in every label, so no fixed text holds one.
_SLOT = "\0"


def _skeleton(model: Model, projected: list) -> tuple:
    """The fixed text of `model`'s file, whose outcomes project onto
    `projected`, as the pieces between which the mode, mu0's and pObj's
    numbers and the lambda go, in that order (see _filled). The pieces
    between two numbers, an outcome's key between the quotes, are shared
    by mu0 and pObj. Takes O(|omega| + cells) string operations."""
    omega = list(map(_encode, model.omega))
    at = model.mu0._index
    signal_of, partition = [None] * len(omega), []
    for label, cell in model.signal_partition.items():
        # a cell's indices are written in omega order
        signal = _encode(label)
        positions = sorted(map(at.__getitem__, cell))
        for i in positions:
            signal_of[i] = signal
        indices = list(map(str, positions))
        partition.append("%s: %s" % (signal, _block(indices, 2, "[]")))
    entries = [
        '{\n      "label": %s,\n      "s": %s,\n      "signal": %s\n    }'
        % (label, _encode(s), signal)
        for label, s, signal in zip(omega, projected, signal_of)
    ]
    # The file split where the mode, mu0, pObj and the lambda go, and
    # mu0's or pObj's object split where its numbers go.
    to_mode, to_mu0, to_p_obj, to_mix, rest = _document(
        [
            ("mode", _SLOT),
            ("states", _block(list(map(_encode, model.states)), 1, "[]")),
            ("omega", _block(entries, 1, "[]")),
            ("mu0", _SLOT),
            ("pObj", _SLOT),
            ("lambda", _SLOT),
            ("partition", _block(partition, 1, "{}")),
        ]
    ).split(_SLOT)
    numbers = _members(omega, [_SLOT] * len(omega), 1)
    opening, *keys, closing = numbers.split(_SLOT)
    return (
        to_mode, to_mu0 + opening, *keys, closing + to_p_obj + opening,
        *keys, closing + to_mix, rest,
    )


def _filled(pieces: tuple, values: list) -> str:
    """A file's text from its fixed pieces and the values between them."""
    text = [None] * (2 * len(pieces) - 1)
    text[::2] = pieces
    text[1::2] = values
    return "".join(text)


def _model_file(model: Model, mode: str) -> tuple:
    """(text, numbers): a model file's text, and its numbers as
    `_model_numbers` gives them, for a caller that prints them too and so
    formats each once. The fixed text (see _skeleton) of a model
    construct_rationalization built is kept on its shape's layout, while
    the model's fields still equal the layout's (see
    rationalize._kept_layout), and built on each call for any other."""
    numbers, lam = _model_numbers(model), model.lambda_mix
    projected = [model.projection[w] for w in model.omega]
    labels = (model.states, model.omega, projected, model.signal_partition)
    _writable(mode, *labels, () if lam is None else lam.space)
    layout = _kept_layout(model)
    if layout is None:
        skeleton = _skeleton(model, projected)
    else:
        skeleton = layout.file
        if skeleton is None:
            skeleton = layout.file = _skeleton(model, projected)
    mix = "null"
    if lam is not None:
        mix = _dist_text(map(_encode, lam.space), lam, 1, model.tol)
    values = [_encode(mode), *numbers[0], *numbers[1], mix]
    return _filled(skeleton, values), numbers


def model_json(model: Model, mode: str) -> str:
    """A model file's text, the layout of json.dumps(..., indent=2)
    followed by a newline; see docs/format.md."""
    return _model_file(model, mode)[0]


def save_model(model: Model, path, mode: str = "rational") -> None:
    """Write a model file. Takes time and memory linear in the file's
    size, plus one formatting per distinct numerator of each
    distribution. The file's fixed text, all but its mode, numbers and
    lambda, is built once per shape for the models that
    construct_rationalization builds (see `_model_file`); each call still
    checks the mode and every label, and formats the numbers and the
    lambda. An existing file is overwritten in place and cut to length,
    not truncated first (see `_write`)."""
    _write(path, model_json(model, mode))


_OMEGA_FIELDS = ("label", "s", "signal")
_OMEGA = [itemgetter(key) for key in _OMEGA_FIELDS]


def _omega_entry(entry, states: tuple) -> list:
    """An omega entry's label, state and signal, checked in full; a bad
    entry is _Misplaced."""
    if not isinstance(entry, dict):
        raise _Misplaced("expected an object")
    values = [_field(entry, key) for key in _OMEGA_FIELDS]
    for key, value in zip(_OMEGA_FIELDS, values):
        if not isinstance(value, str) or not value:
            raise _Misplaced("field %r must be a non-empty string" % key)
    if values[1] not in states:
        raise _Misplaced("state %r is not in 'states'" % values[1])
    return values


def _omega_columns(raw_omega: list, states: tuple, where: str) -> list:
    """The omega entries' labels, states and signals as three lists,
    checked column by column as _omega_entry checks each entry. A bad
    entry, the first in file order, is refused by _omega_entry."""
    try:
        columns = [list(map(get, raw_omega)) for get in _OMEGA]
        labels, projected, signals = columns
        if (
            set(map(type, chain(labels, signals))) == {str}
            and "" not in labels
            and "" not in signals
            and set(states).issuperset(projected)
        ):
            return columns
    except (TypeError, KeyError):  # an entry not an object, or short
        pass
    for i, entry in enumerate(raw_omega):
        try:
            _omega_entry(entry, states)
        except _Misplaced as err:
            raise err.at("%s:omega[%d]" % (where, i)) from None
    raise AssertionError("the columns refused entries _omega_entry accepts")


def load_model(path) -> tuple[Model, str]:
    """Read a model file; returns (model, mode). Takes time and memory
    linear in the file's size, plus one parse per distinct number string
    in the file and, for each distribution, one lcm over its distinct
    values' denominators and one scaling per distinct value; Model's
    checks are O(|omega| + cells) set operations of that."""
    data = _load_json(path)
    where = str(path)
    mode = _parse_mode(data, where)
    states = _parse_states(data, where)
    raw_omega = _require(data, "omega", where)
    if not isinstance(raw_omega, list) or not raw_omega:
        raise FormatError("%s: field 'omega' must be a non-empty list" % where)
    omega, projected, signals = _omega_columns(raw_omega, states, where)
    omega = tuple(omega)
    index = {w: i for i, w in enumerate(omega)}
    if len(index) != len(omega):
        raise FormatError("%s: omega labels must be distinct" % where)
    cells: dict = {}  # signal -> the positions of its outcomes in omega
    for i, signal in enumerate(signals):
        cells.setdefault(signal, []).append(i)

    if "partition" in data:
        declared = data["partition"]
        if not isinstance(declared, dict):
            raise FormatError("%s: field 'partition' must be an object" % where)
        if declared != cells:
            raise FormatError(
                "%s: field 'partition' disagrees with the omega entries'"
                " signal labels" % where
            )

    seen = {}

    def dist_over_omega(key: str) -> Dist:
        raw = _require(data, key, where)
        try:
            return _parse_dist(raw, omega, index, mode, seen, "omega")
        except _Misplaced as err:
            raise err.at("%s:%s" % (where, key)) from None

    mu0 = dist_over_omega("mu0")
    p_obj = dist_over_omega("pObj")

    lambda_mix = None
    raw_lambda = data.get("lambda")
    if raw_lambda is not None:
        if not isinstance(raw_lambda, dict):
            raise FormatError(
                "%s: field 'lambda' must be an object or null" % where
            )
        try:
            nums, den = _numbers(raw_lambda, mode, seen)
        except _Misplaced as err:
            raise err.at("%s:lambda" % where) from None
        try:
            lambda_mix = Dist._from_vector(
                tuple(raw_lambda), nums, den, _float_tol(mode, nums)
            )
        except StructuralError as err:
            raise FormatError("%s:lambda: %s" % (where, err)) from None

    # Lists equal to the indices may still hold 0.0 for 0 or true for 1.
    # Checked last, so that a file with another fault reports that one.
    if "partition" in data:
        indices = chain.from_iterable(data["partition"].values())
        if set(map(type, indices)) != {int}:
            raise FormatError(
                "%s: field 'partition' must list integer indices into"
                " 'omega'" % where
            )

    model = Model(
        states=states,
        omega=omega,
        projection=dict(zip(omega, projected)),
        signal_partition={
            label: tuple(map(omega.__getitem__, cell))
            for label, cell in cells.items()
        },
        mu0=mu0,
        pObj=p_obj,
        lambda_mix=lambda_mix,
    )
    return model, mode
