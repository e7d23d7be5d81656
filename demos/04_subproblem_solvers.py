"""The three inner solvers the MM loops rely on, plus the brute-force oracle.

Separable minimisation is exact and linear-time; the cardinality-budgeted
variant runs a small dynamic program.  Submodular maximisation uses a
deterministic lattice double greedy (1/3 of the optimum on nonnegative
inputs).  Submodular minimisation is either exhaustive or Wolfe's
minimum-norm-point method, which stops on a certified duality gap.
"""

import numpy as np

import dsmin as d

dom = d.LatticeDomain([3, 3])

# --- separable minimisation --------------------------------------------------
s = d.SeparableFunction(dom, 0.0, [[2.0, -3.0], [-1.0, 4.0]])
print("unconstrained separable min:", d.minimize_separable(s))
for budget in (0, 1, 2, 4):
    point, value = d.minimize_separable_cardinality(s, dom, budget)
    print(f"  budget {budget}: point {point}, value {value}")

# --- double greedy -----------------------------------------------------------
# A non-monotone nonnegative submodular objective: coverage reward minus a
# level cost, shifted to be nonnegative.
rng = np.random.default_rng(4)
miss = 1.0 - rng.uniform(0.2, 0.5, size=(2, 3))
weights = rng.uniform(1.0, 2.0, size=3)


def reward(x):
    arr = np.asarray(x, dtype=float).reshape(-1, 1)
    return float(weights @ (1.0 - np.prod(miss ** arr, axis=0))) - 0.35 * sum(x)


table = d.table_of(d.OracleFunction(dom, reward))
g = d.TableFunction(dom, table - table.min())
point, value = d.double_greedy_maximize(g)
best = float(g.values.max())
print(f"\ndouble greedy: point {point}, value {value:.4f}, "
      f"optimum {best:.4f}, ratio {value / best:.2f} (>= 1/3 guaranteed)")

# --- submodular minimisation -------------------------------------------------
f = d.OracleFunction(dom, lambda x: -float(x[0] * x[1]))
exact = d.minimize_submodular(f, method="brute_force")
print(f"\nbrute-force SFM: {exact.minimizer}, value {exact.value}")

approx = d.minimize_submodular(f, method="subgradient",
                               options=d.SubgradientOptions(iterations=300))
info = approx.duality_info
print(f"minimum-norm-point SFM: {approx.minimizer}, value {approx.value}")
print(f"  certified lower bound {info['lower_bound']}, gap {info['gap']}, "
      f"iterations used {approx.iterations} of 300")

# The primal profile is the projection of -z onto non-increasing levels by
# plain pool-adjacent-violators.
print("\nPAV projection of [0.5, 0.8]:", d.pav_nonincreasing([0.5, 0.8]).tolist())
print("PAV projection of [0.9, 0.3, 0.6]:",
      np.round(d.pav_nonincreasing([0.9, 0.3, 0.6]), 4).tolist())

# The generic enumeration oracle used for verification everywhere.
v = d.OracleFunction(dom, lambda x: (x[0] - 1) ** 2 + (x[1] - 1) ** 2)
print("\nbrute-force oracle:", d.brute_force_minimize(v))
