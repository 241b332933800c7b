"""Probability distributions as the Bayesian special case.

When every focal element is a singleton, the mass function is an
ordinary probability distribution: Deng entropy collapses to Shannon
entropy and the split scale collapses to log2(N), so the dimension
equals Shannon entropy over log2(N).
"""
from evidim import (
    Frame,
    MassFunction,
    ProbabilityDistribution,
    information_dimension,
    information_dimension_profile,
    probability_dimension,
    vacuous,
)

frame = Frame(("sun", "rain", "snow"))
mass = MassFunction.from_assignments(
    frame,
    {
        frame.singleton("sun"): 0.6,
        frame.singleton("rain"): 0.3,
        frame.singleton("snow"): 0.1,
    },
)
print(f"Bayesian?         : {mass.is_bayesian()}")

dist = mass.to_probability()
via_mass = information_dimension(mass)
via_dist = probability_dimension(dist)
print(f"Deng entropy      : {via_mass.entropy_bits:.6f} bits")
print(f"Shannon entropy   : {via_dist.entropy_bits:.6f} bits  (identical)")
print(f"dimension (mass)  : {via_mass.dimension:.6f}")
print(f"dimension (dist)  : {via_dist.dimension:.6f}  (identical)")

# A lopsided two-outcome distribution has dimension below 1 ...
skewed = probability_dimension(ProbabilityDistribution((0.9, 0.1)))
print(f"\n(0.9, 0.1)        : dimension {skewed.dimension:.4f}")

# ... a uniform one sits exactly at 1, matching total ignorance on a
# frame whose power set has the same number of cells.
n = 4
cells = 2**n - 1
uniform = probability_dimension(ProbabilityDistribution((1.0 / cells,) * cells))
ignorant = information_dimension_profile(vacuous(n))
print(f"uniform over {cells}   : dimension {uniform.dimension}")
print(f"vacuous on {n}      : dimension {ignorant.dimension}")
