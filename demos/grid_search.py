"""Brute-force measurement sweeps as an independent check on the constructions.

For two hypotheses the sweep walks every projective pair in dimension 2; for
three it enumerates rank-1 weighted triples whose weights solve the
resolution-of-identity constraint.  Neither route shares code with the
detector construction, which is what makes the agreement meaningful.
"""

import math

import numpy as np

from qdetect import (
    HypothesisSet,
    average_cost,
    grid_oracle_dim2,
    helstrom_oracle,
    pgm,
    zero_one_cost,
)


def pure(angle):
    return np.array([math.cos(angle), math.sin(angle)])


def hypotheses(angles, priors=None):
    # each pure state is given by its unit vector, a 2 x 1 factor
    factors = tuple(pure(a)[:, None] for a in angles)
    n = len(factors)
    priors = np.full(n, 1.0 / n) if priors is None else np.asarray(priors)
    return HypothesisSet(priors=priors, factors=factors, labels=tuple(f"h{k}" for k in range(n)))


# --- two hypotheses: sweep vs closed form ------------------------------------
print("two-hypothesis sweep vs the trace-norm bound (equal priors)")
print(f"{'angle':>6}  {'sweep':>10}  {'bound':>10}")
for degrees in (20, 45, 70, 90):
    h = hypotheses([0.0, math.radians(degrees)])
    swept, partition = grid_oracle_dim2(h, zero_one_cost(2), resolution=20_000)
    bound = helstrom_oracle(h.states[0], h.states[1], 0.5, 0.5)
    print(f"{degrees:>6}  {swept:>10.6f}  {bound:>10.6f}"
          f"   best accept angle {math.degrees(partition.angles[0]):7.3f} deg")

# --- skewed priors move the optimal partition --------------------------------
print("\n45-degree pair, sweeping the prior of the second hypothesis")
for xi in (0.2, 0.5, 0.8):
    h = hypotheses([0.0, math.pi / 4.0], priors=[1.0 - xi, xi])
    swept, partition = grid_oracle_dim2(h, zero_one_cost(2), resolution=20_000)
    bound = helstrom_oracle(h.states[0], h.states[1], 1.0 - xi, xi)
    print(f"  xi={xi:.1f}: sweep={swept:.6f}  bound={bound:.6f}"
          f"  accept angle {math.degrees(partition.angles[0]):7.3f} deg")

# --- three hypotheses: the sweep rediscovers the trine measurement -----------
print("\ntrine sweep")
trine = hypotheses([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
swept, partition = grid_oracle_dim2(trine, zero_one_cost(3), resolution=100_000)
constructed = average_cost(pgm(trine), trine, zero_one_cost(3))
print("  swept minimum cost:", round(swept, 9))
print("  constructed measurement cost:", round(constructed, 9))
print("  swept angles (deg):", np.round(np.degrees(partition.angles), 3))
print("  swept weights:     ", np.round(partition.weights, 6))

# --- a non-symmetric triple: the sweep lower-bounds any construction ---------
print("\nlopsided triple 0/50/130 degrees")
lopsided = hypotheses([0.0, math.radians(50), math.radians(130)])
swept, _ = grid_oracle_dim2(lopsided, zero_one_cost(3), resolution=100_000)
constructed = average_cost(pgm(lopsided), lopsided, zero_one_cost(3))
print(f"  swept minimum {swept:.6f} <= constructed {constructed:.6f}")
