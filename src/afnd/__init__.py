"""Exact-arithmetic toolkit for desk-scale non-Archimedean analytic geometry.

Everything here is computed over the rationals with a p-adic or trivial
absolute value.  Norms live in the multiplicative group generated by primes
with rational exponents, and every comparison is decided in integers (two
powers of the values, cleared of fractional exponents).  No floats enter any
verdict.

The library logs to the "afnd" logger and leaves handling to the
application: with no handler configured, nothing reaches stderr.
"""

import logging

from afnd.affinoid import (
    AffinoidPresentation,
    free_affinoid,
    laurent_localization,
    quotient,
    rational_localization,
    tensor_over,
    weierstrass_localization,
)
from afnd.scalar import FieldSpec, NormValue, padic_valuation, scalar_norm
from afnd.tate import Polyradius, TateElement, parse_element

__all__ = [
    "AffinoidPresentation",
    "FieldSpec",
    "NormValue",
    "Polyradius",
    "TateElement",
    "free_affinoid",
    "laurent_localization",
    "padic_valuation",
    "parse_element",
    "quotient",
    "rational_localization",
    "scalar_norm",
    "tensor_over",
    "weierstrass_localization",
]

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
