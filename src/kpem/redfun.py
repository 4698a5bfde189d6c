"""Reduced functions: scalar maps on density-matrix spectra.

Every kind is a function of two raw spectral sums, the purity sum lam^2
and a kind sum:

    concurrence   sqrt(2 (1 - sum lam^2))    kind sum: the purity
    entropy       -sum lam log2 lam          (0 log 0 = 0)
    q_family      1 - sum lam^q              (q > 1)
    alpha_family  sum lam^alpha - 1          (0 < alpha < 1)

spectral_sums takes both sums off a clipped spectrum and finish turns them
into h.  On a tensor product of spectra the purities and power sums
multiply and the entropies add (product_sums), so h of a product is finish
of the combined sums of its pieces, with no product spectrum formed.

finish applies the shared purity threshold, PURITY_TOL = 1e-9, once, to
the (combined) purity: at or above it h is exactly 0.0, which keeps "this
marginal is pure" consistent between the measures and the factorization
search.  This module imports no other kpem module.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Optional

import numpy as np

KINDS = ("concurrence", "entropy", "q_family", "alpha_family")
PURITY_TOL = 1e-9  # tr(rho^2) >= 1 - PURITY_TOL counts as pure


@dataclass(frozen=True)
class ReducedFunctionSpec:
    kind: str
    parameter: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown reduced function kind {self.kind!r}")
        if self.kind in ("concurrence", "entropy"):
            if self.parameter is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        elif self.parameter is not None and not isinstance(self.parameter, Real):
            name = "q" if self.kind == "q_family" else "alpha"
            raise ValueError(f"{self.kind} needs a real {name}, got {self.parameter!r}")
        elif self.kind == "q_family":
            if self.parameter is None or not 1.0 < self.parameter < math.inf:
                raise ValueError(f"q_family needs a finite q > 1, got {self.parameter}")
        elif self.kind == "alpha_family":
            if self.parameter is None or not 0.0 < self.parameter < 1.0:
                raise ValueError(
                    f"alpha_family needs 0 < alpha < 1, got {self.parameter}"
                )


CONCURRENCE = ReducedFunctionSpec("concurrence")
ENTROPY = ReducedFunctionSpec("entropy")


def spectral_sums(h: ReducedFunctionSpec, lam: np.ndarray) -> tuple[float, float]:
    """(purity, kind sum) of a clipped spectrum, raw: no threshold applied.
    The spectrum may come in any order; its zeros are left out of the
    entropy and alpha sums.  Summed by ndarray.sum, the reduction np.sum
    calls, so the bits are np.sum's."""
    lam = np.asarray(lam)
    pur = float((lam * lam).sum())
    kind = h.kind
    if kind == "concurrence":
        return pur, pur
    if kind == "q_family":
        return pur, float((lam ** h.parameter).sum())
    pos = lam[lam > 0.0]
    if kind == "entropy":
        return pur, float(-(pos * np.log2(pos)).sum())
    return pur, float((pos ** h.parameter).sum())


def product_sums(
    h: ReducedFunctionSpec, pieces: Iterable[tuple[float, float]]
) -> tuple[float, float]:
    """spectral_sums of a tensor product from those of its factors, in
    order: purities and power sums multiply, entropies add.  No factors
    give the sums of a pure state."""
    entropy = h.kind == "entropy"
    pur, total = 1.0, (0.0 if entropy else 1.0)
    for piece_pur, piece_total in pieces:
        pur *= piece_pur
        total = total + piece_total if entropy else total * piece_total
    return pur, total


def finish(h: ReducedFunctionSpec, sums: tuple[float, float]) -> float:
    """h from (purity, kind sum): exactly 0.0 at or above the purity threshold."""
    pur, total = sums
    if pur >= 1.0 - PURITY_TOL:
        return 0.0
    if h.kind == "concurrence":
        return math.sqrt(2.0 * (1.0 - pur))
    if h.kind == "entropy":
        return total
    if h.kind == "q_family":
        return 1.0 - total
    return total - 1.0


def evaluate_spectrum(h: ReducedFunctionSpec, lam: np.ndarray) -> float:
    """Evaluate h on an already clipped spectrum."""
    return finish(h, spectral_sums(h, lam))


# a plain decimal literal with an optional exponent; inf and nan pass, so
# that the spec's range check names the range they miss
_PARAMETER = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|nan)"
)


def parse_parameter(text: str) -> float:
    """A CLI parameter as a float; a ValueError for anything float() reads
    beyond the plain literal, e.g. '1_5' (15.0), ' 2' or non-ASCII digits."""
    if _PARAMETER.fullmatch(text) is None:
        raise ValueError(f"not a decimal number: {text!r}")
    return float(text)


def parse_redfun(text: str) -> ReducedFunctionSpec:
    """Parse the CLI syntax: concurrence | entropy | q:<value> | alpha:<value>."""
    if text == "concurrence":
        return CONCURRENCE
    if text == "entropy":
        return ENTROPY
    kind, colon, arg = text.partition(":")
    if colon and kind in ("q", "alpha"):
        try:
            parameter = parse_parameter(arg)
        except ValueError:
            raise ValueError(f"cannot parse reduced function {text!r}") from None
        return ReducedFunctionSpec(f"{kind}_family", parameter)
    raise ValueError(f"cannot parse reduced function {text!r}")


def format_redfun(h: ReducedFunctionSpec) -> str:
    if h.kind == "concurrence":
        return "concurrence"
    if h.kind == "entropy":
        return "entropy"
    if h.kind == "q_family":
        return f"q:{h.parameter:g}"
    return f"alpha:{h.parameter:g}"
