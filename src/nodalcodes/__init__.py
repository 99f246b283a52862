"""Exact arithmetic for binary codes of nodal curves on surfaces.

Subpackages
-----------
gf2       binary linear codes as bitmask ints, canonical forms, enumeration
lattices  integral lattices from codes, root systems, discriminants
covers    numerical invariants of iterated double covers and node bounds
classify  involution and fibration case analysis built on the above
cli       JSON-report command line front end

Each layer is imported on first access (PEP 562), so `nodalcodes.gf2` and
`from nodalcodes import gf2` work.  This hook is the package's one lazy
loader: CLI handlers and the cross-layer calls in classify and lattices
reach `nodalcodes.<layer>` when they run, so a CLI request loads only the
layers its subcommand calls, and no function imports a layer.
"""

import importlib

__version__ = "0.1.0"

_LAYERS = ("gf2", "lattices", "covers", "classify")

__all__ = [*_LAYERS, "__version__"]

# the choices of two CLI options and two limits, defined here so that
# building the parser, or a cover request, loads no other layer;
# lattices, covers and gf2 re-export them under these names
SCALINGS = ("unscaled", "half")
KODAIRA = ("minus_infinity", "zero", "one", "two", "unknown")
MAX_LENGTH = 32
MAX_ROOT_RANK = 16


def __getattr__(name: str):
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
