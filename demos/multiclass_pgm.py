"""Square-root measurements: from orthogonal ensembles to the trine.

Shows how the measurement elements resolve the identity, when the
construction collapses to an ordinary projective measurement, how the
measurement vectors relate to the class states, and the average cost of the
symmetric three-state ("trine") benchmark.
"""

import math

import numpy as np

from qdetect import (
    HypothesisSet,
    average_cost,
    classify,
    measurement_vectors,
    pgm,
    zero_one_cost,
)
from qdetect.multiclass import MulticlassModel, square_root_vectors


def pure(angle):
    return np.array([math.cos(angle), math.sin(angle)])


def hypotheses(angles):
    # each pure state is given by its unit vector, a 2 x 1 factor
    factors = tuple(pure(a)[:, None] for a in angles)
    return HypothesisSet(
        priors=np.full(len(factors), 1.0 / len(factors)),
        factors=factors,
        labels=tuple(f"h{k}" for k in range(len(factors))),
    )


# --- orthogonal states: the measurement is projective ------------------------
ortho = hypotheses([0.0, math.pi / 2.0])
m = pgm(ortho)
print("orthogonal ensemble ->", m.kind, "measurement")
print("elements:\n", np.round(m.elements[0], 6), "\n", np.round(m.elements[1], 6))
print("zero-one cost:", round(average_cost(m, ortho, zero_one_cost(2)), 12))

# --- the trine: three symmetric states in dimension 2 ------------------------
trine = hypotheses([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])
m = pgm(trine)
print("\ntrine ensemble ->", m.kind, "measurement")
total = sum(m.all_elements())
print("resolution of identity residual:", float(np.linalg.norm(total - np.eye(2))))
for k, element in enumerate(m.elements):
    print(f"element {k}: trace={np.trace(element):.6f}\n{np.round(element, 4)}")

# each element is (2/3) |psi_k><psi_k|, so its unit vector is the state itself
print("\nmeasurement vectors (up to sign convention):")
for k, (eta, psi) in enumerate(zip(measurement_vectors(m), trine.factors)):
    print(f"  eta_{k} = {np.round(eta, 4)}   state = {np.round(psi[:, 0], 4)}")

cost = average_cost(m, trine, zero_one_cost(3))
print("\ntrine zero-one cost:", round(cost, 12), " (best possible is 1/3)")

# --- classification with the measurement -------------------------------------
# pgm() and a trained model share one construction: M = Psi G^(-1/2), the
# polar factor U V^T of Psi = U S V^T.  A trained model keeps only the vectors
# m_k; element k is m_k m_k^T, so the dense elements above are never stored,
# and the kind follows from the rank of M.
model = MulticlassModel(
    strategy="pgm", dim=2, labels=trine.labels, priors=tuple(trine.priors),
    vectors=square_root_vectors(np.hstack(trine.factors) * np.sqrt(trine.priors)),
)
print("\ntrained model ->", model.kind, "measurement of rank", model.rank)
print("its elements match the dense ones:",
      all(np.allclose(a, b, atol=1e-12) for a, b in zip(model.measurement.elements, m.elements)))
print("\nclassifying probes around the circle:")
for degrees in (10, 100, 250, 355):
    x = pure(math.radians(degrees))
    print(f"  {degrees:>3} degrees -> {classify(model, x)}")

# --- a lopsided ensemble keeps the residual bookkeeping honest ---------------
lean = HypothesisSet(
    priors=np.array([0.5, 0.5]),
    factors=(np.eye(3)[:, :1], np.eye(3)[:, 1:2]),
    labels=("a", "b"),
)
m3 = pgm(lean)
print("\ntwo states in dimension 3: residual element trace =", float(np.trace(m3.residual)))
print("sum of all elements is the identity:",
      bool(np.linalg.norm(sum(m3.all_elements()) - np.eye(3)) < 1e-10))
