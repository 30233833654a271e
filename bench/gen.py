"""Seeded input generators for the benchmark.

Every input is built through beliefcheck's public constructors (`Dist`,
`WeightedPosteriors`, `Observation`), passed in as the module
`bc`, and every call into the library goes through the tracer `tr` so that
input construction shows up in the traced run. Weights are exact rationals
with small numerators, as in the acceptance tests.
"""

from fractions import Fraction

MAX_NUM = 9


def state_labels(n):
    return tuple("s%d" % i for i in range(n))


def _normalized(raw):
    total = sum(raw)
    return tuple(Fraction(r, total) for r in raw)


def _raw_weights(rng, space, support, lowest):
    """Integer weights in [lowest, MAX_NUM] on `support`, 0 elsewhere,
    with a positive total."""
    while True:
        raw = [
            rng.randint(lowest, MAX_NUM) if s in support else 0
            for s in space
        ]
        if sum(raw):
            return raw


def _dist(bc, tr, space, weights):
    return tr.call(bc.Dist, space, weights)


def _random_dist(bc, tr, rng, space, support, lowest):
    return _dist(
        bc, tr, space, _normalized(_raw_weights(rng, space, support, lowest))
    )


def _observation(bc, tr, prior, weights, beliefs):
    posteriors = tr.call(bc.WeightedPosteriors, tuple(zip(weights, beliefs)))
    return bc.Observation(prior, posteriors)


def _distinct_beliefs(bc, tr, rng, space, support, k, lowest):
    """k pairwise distinct random beliefs charging only `support`."""
    seen = set()
    beliefs = []
    while len(beliefs) < k:
        key = _normalized(_raw_weights(rng, space, support, lowest))
        if key not in seen:
            seen.add(key)
            beliefs.append(_dist(bc, tr, space, key))
    return beliefs


def random_observation(bc, tr, rng, n, k):
    """Full-support prior and k distinct full-support (hence absolutely
    continuous) posteriors over n states."""
    space = state_labels(n)
    prior = _random_dist(bc, tr, rng, space, space, 1)
    beliefs = _distinct_beliefs(bc, tr, rng, space, set(space), k, 1)
    weights = _normalized([rng.randint(1, MAX_NUM) for _ in range(k)])
    return _observation(bc, tr, prior, weights, beliefs)


def sweep_observation(bc, tr, rng, n, k, full_support_prior):
    """Small absolutely continuous observation over n states with k
    posteriors. Without `full_support_prior` the prior may put zero weight
    on some states; posteriors may put zero weight anywhere inside its
    support."""
    space = state_labels(n)
    raw = _raw_weights(rng, space, space, 1 if full_support_prior else 0)
    prior = _dist(bc, tr, space, _normalized(raw))
    support = {s for s, r in zip(space, raw) if r}
    if len(support) == 1:
        k = 1  # a point-mass prior admits only itself as a posterior
    beliefs = _distinct_beliefs(bc, tr, rng, space, support, k, 0)
    weights = _normalized([rng.randint(1, MAX_NUM) for _ in range(k)])
    return _observation(bc, tr, prior, weights, beliefs)
