"""beliefcheck: decide whether an observed belief dynamic is consistent
with Bayesian rationality, construct an explicit rationalizing model when
it is, and verify the construction independently."""

from .dist import (
    TOL,
    Dist,
    Observation,
    RnDerivative,
    RnEntry,
    RnReport,
    WeightedPosteriors,
    condition,
    martingale_check,
    pushforward,
    rn_derivative,
)
from .errors import (
    AbsoluteContinuityViolation,
    FormatError,
    InvalidMixError,
    NotRationalizableError,
    PreconditionError,
    ResourceBoundError,
    StructuralError,
    UndefinedUpdateError,
    ZeroProbabilityCell,
)
from .io import (
    load_model,
    load_observation,
    save_model,
    save_observation,
)
from .rationalize import (
    Model,
    VerifyReport,
    check_condition1,
    construct_rationalization,
    induced_observables,
    target_mix,
    uniform_mix,
    verify_model,
)

__all__ = [
    "TOL",
    "Dist",
    "Observation",
    "RnDerivative",
    "RnEntry",
    "RnReport",
    "WeightedPosteriors",
    "condition",
    "martingale_check",
    "pushforward",
    "rn_derivative",
    "AbsoluteContinuityViolation",
    "FormatError",
    "InvalidMixError",
    "NotRationalizableError",
    "PreconditionError",
    "ResourceBoundError",
    "StructuralError",
    "UndefinedUpdateError",
    "ZeroProbabilityCell",
    "load_model",
    "load_observation",
    "save_model",
    "save_observation",
    "Prop1Report",
    "brute_force_known_omega",
    "check_proposition1",
    "construct_known_omega_model",
    "set_partitions",
    "Model",
    "VerifyReport",
    "check_condition1",
    "construct_rationalization",
    "induced_observables",
    "target_mix",
    "uniform_mix",
    "verify_model",
    "PanelSample",
    "simulate_panel",
    "tv_distance",
]

__version__ = "0.1.0"

# The names of `simulate` (which imports hashlib) and `known_omega` are
# resolved on first use, so that a process which calls neither does not
# compile or run them.
_LAZY = {
    "known_omega": (
        "Prop1Report",
        "brute_force_known_omega",
        "check_proposition1",
        "construct_known_omega_model",
        "set_partitions",
    ),
    "simulate": ("PanelSample", "simulate_panel", "tv_distance"),
}
_OWNER = {
    name: module
    for module, names in _LAZY.items()
    for name in (module, *names)
}


def __getattr__(name):
    """A name of a module in _LAZY, or that module (PEP 562): the first
    read imports the module and binds its names in the package's globals,
    where later reads find them without calling this."""
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        )
    from importlib import import_module

    # Importing the submodule binds it here under its own name.
    loaded = import_module("." + module, __name__)
    for export in _LAZY[module]:
        globals()[export] = getattr(loaded, export)
    return globals()[name]


def __dir__():
    return sorted(globals().keys() | _OWNER.keys())
