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

The loaders parse each distinct number string once per file, scale a
distribution's numerators to one denominator as a whole vector, and take
weights whose keys are their space in order in file order. The omega
entries are checked as three columns; only an omega list that holds a
bad entry is gone through entry by entry, so that the first bad entry in
file order raises. An error is located at its file, field, entry and
state.

Files are written byte for byte in the layout of `json.dump(...,
indent=2)` of the file's JSON object plus a final newline: one
fixed-schema writer per file kind joins the strings around json's C string
encoder and formats each distinct numerator of a distribution once. The
writers refuse what the loaders would refuse to read back: a mode outside
MODES and a label that is not a string. They list each signal cell's
indices in omega order, as the loader requires, so a model's bytes do not
depend on the order in which a cell lists its outcomes, nor on whether it
is a tuple, a list or a set. `rationalize --json` prints the same bytes as
the file `--out` writes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, isinf
from operator import itemgetter
from typing import Tuple

from .dist import _TOL, Dist, Observation, WeightedPosteriors, _vector
from .errors import FormatError, StructuralError
from .rationalize import Model

MODES = ("rational", "float")

#: Largest decimal exponent magnitude accepted: Python's default limit on
#: int digits, which already bounds the "p/q" form.
MAX_EXPONENT = 4300
# The exponent's digits after its leading zeros. This pattern and the next
# split a run of digits one way only, so they match in linear time.
_EXPONENT = re.compile(r"e[-+]?[0_]*((?:[^\D0][\d_]*)?)\s*\Z", re.I)
# A decimal in ASCII digits, as Fraction reads it; float() rounds it as
# float(Fraction(text)) does, both correctly.
_DECIMAL = re.compile(
    r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:e[-+]?\d+)?\Z", re.I | re.A
)


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
    # "p/q" and "p" in ASCII digits, with a nonzero q, are read through
    # int; a sign, space, underscore, exponent or any other digit takes
    # Fraction's own parser, as does every other form.
    num, slash, den = text.partition("/")
    plain = (
        num.isascii()
        and num.isdigit()
        and (not slash or den.isascii() and den.isdigit() and den.strip("0"))
    )
    if not plain:
        exponent = _EXPONENT.search(text)
        digits = exponent.group(1).replace("_", "") if exponent else ""
        # Five or more digits exceed the cap, and int() refuses over 4300.
        if len(digits) > 4 or int(digits or 0) > MAX_EXPONENT:
            raise _Misplaced(
                "decimal exponent above %d in magnitude" % MAX_EXPONENT
            )
        if mode == "float" and _DECIMAL.match(text):
            value = float(text)
            if isinf(value):
                raise _Misplaced("%r is out of range for float mode" % (raw,))
            return value.as_integer_ratio()
    try:
        if plain:
            n, d = int(num), int(den or 1)
        else:
            n, d = Fraction(text).as_integer_ratio()
    except (ValueError, ZeroDivisionError):
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


def _numbers(raw: dict, mode: str, seen: dict) -> tuple:
    """The values of `raw` as integer numerators over the lcm of their
    reduced denominators: (numerators, lcm). A bad value is _Misplaced at
    ".<key>". `seen` maps strings parsed before, in the same file, to their
    pairs: a file repeats many, "0" above all."""
    pairs = []
    try:
        for key, value in raw.items():
            if type(value) is not str:
                pair = _number(value, mode)
            elif value in seen:
                pair = seen[value]
            else:
                pair = seen[value] = _number(value, mode)
            pairs.append(pair)
    except _Misplaced as err:
        raise _Misplaced(err.message, ".%s" % key) from None
    return _vector(pairs)


# Forms of a float-origin number, a whole number and a fraction, between
# no quotes or between JSON's.
_FORMS = {"": ("%r", "%d", "%d/%d"), '"': ('"%r"', '"%d"', '"%d/%d"')}


def _number_texts(nums, den: int, tol, quote: str = "") -> list:
    """The numbers nums[i] / den as written, each between two `quote`s
    ("" or '"'): "p/q" in lowest terms, or "p" when q is 1, for exact data
    (tol 0), the repr of the nearest float for float-origin data. Each
    distinct numerator is formatted once."""
    real, whole, part = _FORMS[quote]
    text = {}  # numerator -> its text
    if tol:
        for n in nums:
            if n not in text:
                text[n] = real % (n / den)
    else:
        for n in nums:
            if n not in text:
                g = gcd(n, den)
                p, q = n // g, den // g
                text[n] = whole % p if q == 1 else part % (p, q)
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


def _load_json(path) -> dict:
    try:
        data = read_json(path)
    except json.JSONDecodeError as err:
        raise FormatError(
            "%s: invalid JSON at line %d column %d: %s"
            % (path, err.lineno, err.colno, err.msg)
        ) from None
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
    labels = tuple(raw)
    if labels != space:
        nums = list(map(dict(zip(labels, nums)).get, space, repeat(0)))
    tol = _float_tol(mode, labels)
    try:
        return Dist._from_vector(space, nums, den, tol, index)
    except StructuralError as err:
        raise _Misplaced(str(err), suffix) from None


def load_observation(path) -> Tuple[Observation, str]:
    """Read an observation file; returns (observation, mode). Takes time
    and memory linear in the file's size, plus one parse per distinct
    number string."""
    data = _load_json(path)
    where = str(path)
    mode = _parse_mode(data, where)
    states = _parse_states(data, where)
    index = {s: i for i, s in enumerate(states)}
    seen = {}
    try:
        prior = _parse_dist(
            _require(data, "prior", where), states, index, mode, seen, "state"
        )
    except _Misplaced as err:
        raise err.at(where + ":prior") from None
    raw_posts = _require(data, "posteriors", where)
    if not isinstance(raw_posts, list) or not raw_posts:
        raise FormatError(
            "%s: field 'posteriors' must be a non-empty list" % where
        )
    weights, beliefs = [], []
    try:
        for i, entry in enumerate(raw_posts):
            if not isinstance(entry, dict):
                raise _Misplaced("expected an object")
            raw_weight = _field(entry, "weight")
            try:
                weights.append(_number(raw_weight, mode))
            except _Misplaced as err:
                raise _Misplaced(err.message, ".weight") from None
            beliefs.append(
                _parse_dist(
                    _field(entry, "belief"),
                    states,
                    index,
                    mode,
                    seen,
                    "state",
                    ".belief",
                )
            )
    except _Misplaced as err:
        raise err.at("%s:posteriors[%d]" % (where, i)) from None
    try:
        posteriors = WeightedPosteriors._from_ratios(
            weights, _float_tol(mode, weights), beliefs
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


def _dist_text(keys, dist: Dist, depth: int, tol: Fraction) -> str:
    """A distribution as a JSON object keyed by its encoded labels."""
    members = map("%s: %s".__mod__, zip(keys, _weights_text(dist, tol)))
    return _block(list(members), depth, "{}")


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


def _write(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def save_observation(obs: Observation, path, mode: str = "rational") -> None:
    """Write an observation file. Takes time and memory linear in the
    file's size, plus one formatting per distinct numerator of each
    distribution."""
    _write(path, observation_json(obs, mode))


def model_json(model: Model, mode: str) -> str:
    """A model file's text, the layout of json.dumps(..., indent=2)
    followed by a newline; see docs/format.md."""
    lam = model.lambda_mix
    projected = [model.projection[w] for w in model.omega]
    labels = (model.states, model.omega, projected, model.signal_partition)
    _writable(mode, *labels, () if lam is None else lam.space)
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
    mix = "null"
    if lam is not None:
        mix = _dist_text(map(_encode, lam.space), lam, 1, model.tol)
    return _document(
        [
            ("mode", _encode(mode)),
            ("states", _block(list(map(_encode, model.states)), 1, "[]")),
            ("omega", _block(entries, 1, "[]")),
            ("mu0", _dist_text(omega, model.mu0, 1, model.tol)),
            ("pObj", _dist_text(omega, model.pObj, 1, model.tol)),
            ("lambda", mix),
            ("partition", _block(partition, 1, "{}")),
        ]
    )


def save_model(model: Model, path, mode: str = "rational") -> None:
    """Write a model file. Takes time and memory linear in the file's
    size, plus one formatting per distinct numerator of each
    distribution."""
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


def load_model(path) -> Tuple[Model, str]:
    """Read a model file; returns (model, mode). Takes time and memory
    linear in the file's size, plus one parse per distinct number string;
    Model's checks are O(|omega| + cells) set operations of that."""
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
