"""The reference layout of written files: each file kind's JSON object,
built from a Dist's Fraction weights. `save_observation` and `save_model`
must write exactly json.dumps(<kind>_to_dict(...), indent=2) plus a
newline."""

from beliefcheck.io import format_number


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
