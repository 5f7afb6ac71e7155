"""Closed-form classification and numerical verification of synchronized
radial solutions of a doubly critical elliptic system with an inverse-square
potential.

The names below are imported from their submodule on first use (PEP 562), so
``import hardysys`` by itself imports no submodule.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "errors": ("IntegrationError", "ParameterError"),
    "params": ("ProblemParams", "critical_exponent", "hardy_constant"),
    "profiles": ("ScalarProfile",),
    "coupling": ("CouplingRoot", "SynchronizedFamily", "classify",
                 "constants_from_root", "coupling_f", "coupling_f_prime",
                 "find_positive_roots", "verify_constants_system"),
    "emdenfowler": ("EFState", "EFTrajectory", "integrate", "proportionality_defect",
                    "shoot_synchronized"),
    "verify": ("CheckResult", "VerificationReport", "full_verification"),
    "cli": (),
}

_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name):
    if name in _SUBMODULE_OF:
        value = getattr(importlib.import_module("." + _SUBMODULE_OF[name], __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE_OF) | set(_EXPORTS))
