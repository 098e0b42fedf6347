"""The smooth sensitivity framework (Nissim, Raskhodnikova & Smith 2007).

Noise proportional to the local sensitivity ``LS_q(D)`` leaks information;
NRS07 instead calibrate to a *β-smooth upper bound*::

    S*_{q,β}(D) = max_{s ≥ 0} e^{-βs} · LS_q^{(s)}(D)

where ``LS^{(s)}`` is the local sensitivity maximized over databases at
distance ≤ s.  Released with admissible noise:

* **ε-DP** — Cauchy noise: ``q(D) + (2(γ+1)/ε)·S*·η`` with η standard
  Cauchy and ``β = ε/(2(γ+1))``; we use the classic γ = 2, i.e. scale
  ``6·S*/ε`` and ``β = ε/6``.
* **(ε,δ)-DP** — Laplace noise ``2·S*/ε`` with ``β = ε/(2 ln(2/δ))``.

A concrete baseline supplies ``ls_at_distance(s)``; the framework finds the
maximizing ``s`` (the sequence ``e^{-βs}·LS^{(s)}`` can be cut off once
``LS^{(s)}`` reaches its global cap, after which the expression only
decays).
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Optional

from ..errors import PrivacyParameterError
from ..rng import RngLike, ensure_rng
from .common import BaselineResult

__all__ = ["SmoothSensitivity", "cauchy_noise_release", "laplace_noise_release"]


class SmoothSensitivity:
    """β-smooth sensitivity from a distance-indexed local sensitivity.

    Parameters
    ----------
    ls_at_distance:
        ``s ↦ LS^{(s)}(D)`` — nondecreasing in ``s``.
    ls_cap:
        A global cap on ``LS^{(s)}`` (e.g. ``n-2`` for triangle counting);
        the maximization stops once the cap is hit since beyond it the
        smooth term only decays.
    max_distance:
        Hard stop for pathological inputs.

    ``ls_at_distance`` is a function of the data alone, so :meth:`value`
    is cached per β: a mechanism that keeps one instance pays the scan
    once per ε.
    """

    def __init__(
        self,
        ls_at_distance: Callable[[int], float],
        ls_cap: float,
        max_distance: int = 100_000,
    ):
        self.ls_at_distance = ls_at_distance
        self.ls_cap = float(ls_cap)
        self.max_distance = int(max_distance)
        self._values: Dict[float, float] = {}

    def value(self, beta: float) -> float:
        """``S*_β = max_s e^{-βs}·LS^{(s)}``."""
        if beta <= 0:
            raise PrivacyParameterError(f"beta must be positive, got {beta}")
        cached = self._values.get(beta)
        if cached is not None:
            return cached
        best = 0.0
        for s in range(self.max_distance + 1):
            ls = float(self.ls_at_distance(s))
            best = max(best, math.exp(-beta * s) * ls)
            if ls >= self.ls_cap:
                break
        self._values[beta] = best
        return best


def cauchy_noise_release(
    true_answer: float,
    smooth: SmoothSensitivity,
    epsilon: float,
    rng: RngLike = None,
    mechanism: str = "smooth-cauchy",
) -> BaselineResult:
    """ε-DP release with Cauchy (γ=2) admissible noise: scale ``6·S*/ε``."""
    if epsilon <= 0:
        raise PrivacyParameterError(f"epsilon must be positive, got {epsilon}")
    start = time.perf_counter()
    beta = epsilon / 6.0
    s_star = smooth.value(beta)
    scale = 6.0 * s_star / epsilon
    eta = float(ensure_rng(rng).standard_cauchy())
    return BaselineResult(
        answer=float(true_answer) + scale * eta,
        true_answer=float(true_answer),
        noise_scale=scale,
        mechanism=mechanism,
        epsilon=epsilon,
        seconds=time.perf_counter() - start,
        diagnostics={"smooth_sensitivity": s_star, "beta": beta},
    )


def laplace_noise_release(
    true_answer: float,
    smooth: SmoothSensitivity,
    epsilon: float,
    delta: float,
    rng: RngLike = None,
    mechanism: str = "smooth-laplace",
) -> BaselineResult:
    """(ε,δ)-DP release with Laplace noise ``2·S*/ε``, ``β = ε/(2 ln(2/δ))``."""
    if epsilon <= 0 or not 0 < delta < 1:
        raise PrivacyParameterError(
            f"need epsilon > 0 and 0 < delta < 1, got {epsilon}, {delta}"
        )
    start = time.perf_counter()
    beta = epsilon / (2.0 * math.log(2.0 / delta))
    s_star = smooth.value(beta)
    scale = 2.0 * s_star / epsilon
    noise = float(ensure_rng(rng).laplace(0.0, scale)) if scale > 0 else 0.0
    return BaselineResult(
        answer=float(true_answer) + noise,
        true_answer=float(true_answer),
        noise_scale=scale,
        mechanism=mechanism,
        epsilon=epsilon,
        delta=delta,
        seconds=time.perf_counter() - start,
        diagnostics={"smooth_sensitivity": s_star, "beta": beta},
    )
