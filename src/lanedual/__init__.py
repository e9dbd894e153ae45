"""Dual variational solver for critical Lane-Emden systems with Neumann
boundary conditions.

The library computes entire-space ground-state bubbles by radial shooting,
maximizes the dual quotient on discretized radially symmetric domains,
recovers least-energy nodal solutions, and runs the quantitative checks
(compactness thresholds, bubble norm rates, symmetry diagnostics) at desk
scale.
"""

from importlib import import_module

__version__ = "0.1.0"


class NumericalError(RuntimeError):
    """A numerical failure: a solve, fixed point or shoot that did not
    deliver, as opposed to a bad configuration. `partial` holds the
    results of the work done before the failure; the CLI exits 3 on it
    and writes them next to the error."""

    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial or {}


def lazy_getattr(modname, names):
    """PEP 562 ``__getattr__`` of module `modname`: `names` maps a name to
    "submodule" or "submodule.attr" of this package, imported on use. Nothing
    is cached, so a name patched in its owning module is patched here too."""
    def __getattr__(attr):
        if attr not in names:
            raise AttributeError(
                f"module {modname!r} has no attribute {attr!r}")
        sub, _, name = names[attr].partition(".")
        mod = import_module(f"{__name__}.{sub}")
        return getattr(mod, name) if name else mod
    return __getattr__


# imported on first use, so that `import lanedual` loads no scipy
_EXPORTS = {
    "exponents": ("ExponentPack", "hyperbola_partner", "derived_constants",
                  "admissibility"),
    "mesh": ("Mesh", "build"),
    "neumann": ("NeumannSolver",),
    "groundstate": ("BubbleProfile", "shoot", "profile_constants",
                    "scaled_quantities"),
    "dualsolve": ("DualReport", "maximize_D", "rayleigh_ratio", "energy"),
}
__all__ = ["NumericalError"] + [name for names in _EXPORTS.values()
                                for name in names]
__getattr__ = lazy_getattr(__name__, {name: f"{sub}.{name}"
                                      for sub, names in _EXPORTS.items()
                                      for name in names})
