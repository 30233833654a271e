"""References for file I/O.

The layout of written files: each file kind's JSON object, built from a
Dist's Fraction weights. `save_observation` and `save_model` must write
exactly json.dumps(<kind>_to_dict(...), indent=2) plus a newline.

The loaders: `load_observation_reference` and `load_model_reference` read
a file one entry and one number at a time, in file order, and raise the
first error they meet. `load_observation` and `load_model` must return
equal objects and raise the same messages. The one difference is that
`load_model` also refuses partition indices that are not JSON integers,
which the reference accepts when they compare equal to the indices.
"""

from beliefcheck.dist import (
    _TOL,
    Dist,
    Observation,
    WeightedPosteriors,
    _vector,
)
from beliefcheck.errors import FormatError, StructuralError
from beliefcheck.io import (
    _Misplaced,
    _field,
    _load_json,
    _number,
    _omega_entry,
    _parse_mode,
    _parse_states,
    _require,
    format_number,
)
from beliefcheck.rationalize import Model


def observation_to_dict(obs, mode: str) -> dict:
    tol = obs.tol
    return {
        "mode": mode,
        "states": list(obs.space),
        "prior": {
            s: format_number(w, tol)
            for s, w in zip(obs.prior.space, obs.prior.weights)
        },
        "posteriors": [
            {
                "weight": format_number(w, tol),
                "belief": {
                    s: format_number(b[s], tol) for s in obs.space
                },
            }
            for w, b in obs.posteriors.items
        ],
    }


def model_to_dict(model, mode: str) -> dict:
    signal_of = {}
    for label, cell in model.signal_partition.items():
        for w in cell:
            signal_of[w] = label
    omega_index = {w: i for i, w in enumerate(model.omega)}

    def text(dist) -> list:
        return [format_number(w, model.tol) for w in dist.weights]

    return {
        "mode": mode,
        "states": list(model.states),
        "omega": [
            {
                "label": w,
                "s": model.projection[w],
                "signal": signal_of[w],
            }
            for w in model.omega
        ],
        "mu0": dict(zip(model.omega, text(model.mu0))),
        "pObj": dict(zip(model.omega, text(model.pObj))),
        "lambda": (
            None
            if model.lambda_mix is None
            else dict(zip(model.lambda_mix.space, text(model.lambda_mix)))
        ),
        "partition": {
            label: [omega_index[w] for w in cell]
            for label, cell in model.signal_partition.items()
        },
    }


def _tol(mode, numbers):
    return _TOL if mode == "float" and numbers else 0


def _numbers(raw: dict, mode: str) -> dict:
    out = {}
    for key, value in raw.items():
        try:
            out[key] = _number(value, mode)
        except _Misplaced as err:
            raise _Misplaced(err.message, ".%s" % key) from None
    return out


def _dist(raw, space: tuple, mode: str, what: str, suffix="") -> Dist:
    if not isinstance(raw, dict):
        raise _Misplaced(
            "expected an object mapping %s labels to numbers" % what, suffix
        )
    extra = set(raw) - set(space)
    if extra:
        raise _Misplaced(
            "unknown %s labels %s" % (what, ", ".join(sorted(extra))), suffix
        )
    try:
        weights = _numbers(raw, mode)
    except _Misplaced as err:
        raise _Misplaced(err.message, suffix + err.suffix) from None
    ratios = [weights.get(s, (0, 1)) for s in space]
    try:
        return Dist._from_vector(
            space, *_vector(ratios), _tol(mode, weights)
        )
    except StructuralError as err:
        raise _Misplaced(str(err), suffix) from None


def load_observation_reference(path):
    data = _load_json(path)
    where = str(path)
    mode = _parse_mode(data, where)
    states = _parse_states(data, where)
    try:
        prior = _dist(_require(data, "prior", where), states, mode, "state")
    except _Misplaced as err:
        raise err.at(where + ":prior") from None
    raw_posts = _require(data, "posteriors", where)
    if not isinstance(raw_posts, list) or not raw_posts:
        raise FormatError(
            "%s: field 'posteriors' must be a non-empty list" % where
        )
    weights, beliefs = [], []
    for i, entry in enumerate(raw_posts):
        try:
            if not isinstance(entry, dict):
                raise _Misplaced("expected an object")
            raw_weight = _field(entry, "weight")
            try:
                weights.append(_number(raw_weight, mode))
            except _Misplaced as err:
                raise _Misplaced(err.message, ".weight") from None
            raw_belief = _field(entry, "belief")
            beliefs.append(_dist(raw_belief, states, mode, "state", ".belief"))
        except _Misplaced as err:
            raise err.at("%s:posteriors[%d]" % (where, i)) from None
    try:
        posteriors = WeightedPosteriors._from_vector(
            *_vector(weights), _tol(mode, weights), beliefs
        )
        obs = Observation(prior, posteriors)
    except StructuralError as err:
        raise FormatError("%s: %s" % (where, err)) from None
    return obs, mode


def load_model_reference(path):
    data = _load_json(path)
    where = str(path)
    mode = _parse_mode(data, where)
    states = _parse_states(data, where)
    raw_omega = _require(data, "omega", where)
    if not isinstance(raw_omega, list) or not raw_omega:
        raise FormatError("%s: field 'omega' must be a non-empty list" % where)
    omega, projection, partition = [], {}, {}
    for i, entry in enumerate(raw_omega):
        try:
            label, s, signal = _omega_entry(entry, states)
        except _Misplaced as err:
            raise err.at("%s:omega[%d]" % (where, i)) from None
        omega.append(label)
        projection[label] = s
        partition.setdefault(signal, []).append(label)
    omega = tuple(omega)
    index = {w: i for i, w in enumerate(omega)}
    if len(index) != len(omega):
        raise FormatError("%s: omega labels must be distinct" % where)
    if "partition" in data:
        declared = data["partition"]
        if not isinstance(declared, dict):
            raise FormatError(
                "%s: field 'partition' must be an object" % where
            )
        rebuilt = {
            label: [index[w] for w in cell]
            for label, cell in partition.items()
        }
        if declared != rebuilt:
            raise FormatError(
                "%s: field 'partition' disagrees with the omega entries'"
                " signal labels" % where
            )

    def over_omega(key):
        try:
            return _dist(_require(data, key, where), omega, mode, "omega")
        except _Misplaced as err:
            raise err.at("%s:%s" % (where, key)) from None

    mu0, p_obj = over_omega("mu0"), over_omega("pObj")
    lambda_mix = None
    raw_lambda = data.get("lambda")
    if raw_lambda is not None:
        if not isinstance(raw_lambda, dict):
            raise FormatError(
                "%s: field 'lambda' must be an object or null" % where
            )
        try:
            weights = _numbers(raw_lambda, mode)
        except _Misplaced as err:
            raise err.at("%s:lambda" % where) from None
        try:
            lambda_mix = Dist._from_vector(
                tuple(weights),
                *_vector(list(weights.values())),
                _tol(mode, weights),
            )
        except StructuralError as err:
            raise FormatError("%s:lambda: %s" % (where, err)) from None
    model = Model(
        states=states,
        omega=omega,
        projection=projection,
        signal_partition={
            label: tuple(cell) for label, cell in partition.items()
        },
        mu0=mu0,
        pObj=p_obj,
        lambda_mix=lambda_mix,
    )
    return model, mode
