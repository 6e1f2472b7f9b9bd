"""Independent optimality oracles for small detection instances.

``helstrom_oracle`` is the closed-form two-hypothesis minimum error; the grid
oracle brute-forces dimension-2 measurements by sweeping angles, so neither
shares code with the detector construction it validates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from qdetect.errors import DimensionMismatchError
from qdetect.linalg import trace_norm
from qdetect.multiclass import HypothesisSet, check_cost_matrix


def helstrom_oracle(rho1, rho0, xi1: float, xi0: float) -> float:
    """Minimum two-hypothesis error ``(1 - ||xi1 rho1 - xi0 rho0||_1) / 2``.

    Each state must be a density operator: finite, symmetric and PSD with
    trace 1, each within 1e-10; a matrix that is not raises ValueError.
    """
    if not (xi1 > 0.0 and xi0 > 0.0 and abs(xi1 + xi0 - 1.0) <= 1e-12):  # False for NaN
        raise ValueError(f"priors must be positive and sum to 1, got {xi1}, {xi0}")
    rho1 = np.asarray(rho1, dtype=float)
    rho0 = np.asarray(rho0, dtype=float)
    if rho1.shape != rho0.shape:
        raise DimensionMismatchError(
            f"density shapes differ: {rho1.shape} vs {rho0.shape}"
        )
    for name, rho in (("rho1", rho1), ("rho0", rho0)):
        if (not np.all(np.isfinite(rho)) or abs(np.trace(rho) - 1.0) > 1e-10
                or np.abs(rho - rho.T).max() > 1e-10 or np.linalg.eigvalsh(rho)[0] < -1e-10):
            raise ValueError(f"{name} is not a density operator within 1e-10")
    return 0.5 * (1.0 - trace_norm(xi1 * rho1 - xi0 * rho0))


@dataclass(frozen=True)
class GridPartition:
    """Minimizing measurement from a grid sweep: one angle and weight per hypothesis.

    Element ``k`` is ``weights[k] * outer((cos a_k, sin a_k), ...)`` with
    ``a_k = angles[k]``; for two hypotheses the weights are both 1 and the
    angles differ by a right angle (a projective pair).
    """

    angles: np.ndarray
    weights: np.ndarray


def _born_row(angles: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``<angle|rho|angle>`` for every grid angle at once."""
    c = np.cos(angles)
    s = np.sin(angles)
    return c * c * rho[0, 0] + 2.0 * c * s * rho[0, 1] + s * s * rho[1, 1]


def _sweep_two(h: HypothesisSet, k: np.ndarray, resolution: int):
    angles = np.arange(resolution) * (math.pi / resolution)
    # cost(theta) = sum_j xi_j (K[0,j] t_j + K[1,j] (1 - t_j)) for unit-trace states
    base = 0.0
    slope = np.zeros(resolution)
    for j in range(2):
        t = _born_row(angles, h.states[j])
        trace_j = float(np.trace(h.states[j]))
        base += float(h.priors[j]) * k[1, j] * trace_j
        slope += float(h.priors[j]) * (k[0, j] - k[1, j]) * t
    costs = base + slope
    best = int(np.argmin(costs))
    theta = float(angles[best])
    partition = GridPartition(
        angles=np.array([theta, math.fmod(theta + math.pi / 2.0, math.pi)]),
        weights=np.array([1.0, 1.0]),
    )
    return float(costs[best]), partition


def _sweep_three(h: HypothesisSet, k: np.ndarray, resolution: int):
    # Rank-1 weighted triples: weights solve the resolution-of-identity
    # constraint sum_m a_m |theta_m><theta_m| = I, which in dimension 2 reads
    # sum a_m = 2, sum a_m cos 2theta_m = 0, sum a_m sin 2theta_m = 0.
    axis = max(24, int(round(resolution ** (1.0 / 3.0))))
    axis = 6 * math.ceil(axis / 6)  # keep 30-degree multiples on the grid
    angles = np.arange(axis) * (math.pi / axis)
    combos = np.array(list(itertools.combinations(range(axis), 3)))
    theta = angles[combos]  # (C, 3)
    ones = np.ones_like(theta)
    systems = np.stack([ones, np.cos(2.0 * theta), np.sin(2.0 * theta)], axis=1)
    dets = np.linalg.det(systems)
    solvable = np.abs(dets) > 1e-9
    theta = theta[solvable]
    systems = systems[solvable]
    rhs = np.tile(np.array([2.0, 0.0, 0.0]), (systems.shape[0], 1))
    weights = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
    feasible = np.all(weights >= -1e-9, axis=1)
    theta = theta[feasible]
    weights = np.clip(weights[feasible], 0.0, None)

    # Residual of the identity constraint after clipping, in Frobenius norm.
    c2 = np.cos(theta) ** 2
    s2 = np.sin(theta) ** 2
    cs = np.cos(theta) * np.sin(theta)
    top = np.sum(weights * c2, axis=1) - 1.0
    bottom = np.sum(weights * s2, axis=1) - 1.0
    off = np.sum(weights * cs, axis=1)
    residual = np.sqrt(top * top + bottom * bottom + 2.0 * off * off)
    ok = residual <= 1e-6
    theta = theta[ok]
    weights = weights[ok]
    if theta.shape[0] == 0:
        raise ValueError("no feasible rank-1 triple found on the sweep grid")

    # born[c, m, j] = <theta_cm | rho_j | theta_cm>
    born = np.stack(
        [_born_row(theta, h.states[j]) for j in range(3)], axis=2
    )
    xi = np.asarray(h.priors)
    best_cost = math.inf
    best = None
    for perm in itertools.permutations(range(3)):
        # slot m of the triple serves hypothesis perm[m]
        kmat = np.array([[k[perm[m], j] * xi[j] for j in range(3)] for m in range(3)])
        costs = np.einsum("cm,cmj,mj->c", weights, born, kmat)
        idx = int(np.argmin(costs))
        if float(costs[idx]) < best_cost:
            best_cost = float(costs[idx])
            by_hypothesis = np.argsort(perm)  # the slot serving each hypothesis
            best = GridPartition(
                angles=theta[idx][by_hypothesis].copy(),
                weights=weights[idx][by_hypothesis].copy(),
            )
    return best_cost, best


def grid_oracle_dim2(
    h: HypothesisSet, cost, resolution: int = 100_000
) -> tuple[float, GridPartition]:
    """Brute-force minimum average cost over swept dimension-2 measurements.

    Two hypotheses: every projective pair, angles stepped ``pi / resolution``.
    Three hypotheses: every rank-1 weighted triple on a coarser per-axis grid
    (roughly the cube root of ``resolution``, rounded up to a multiple of 6)
    whose weights solve the resolution-of-identity constraint within 1e-6.
    """
    if h.dim != 2:
        raise DimensionMismatchError(f"grid oracle needs dim 2, got {h.dim}")
    # memory grows with the resolution: about 0.5 GB at the ceiling
    if not 1000 <= resolution <= 10**7:
        raise ValueError(f"resolution must be from 1000 to 10**7, got {resolution}")
    k = check_cost_matrix(cost, h.n)
    if h.n == 2:
        return _sweep_two(h, k, resolution)
    if h.n == 3:
        return _sweep_three(h, k, resolution)
    raise ValueError(f"grid oracle supports 2 or 3 hypotheses, got {h.n}")
