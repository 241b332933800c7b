"""A first dimension report, step by step.

Build a two-element frame, put 5/6 of the mass on one outcome and the
remaining 1/6 on "either outcome", and read off the three numbers that
make up a report: Deng entropy, the split scale, and their ratio.
"""
from evidim import Frame, MassFunction, information_dimension, mass_to_json

frame = Frame(("w1", "w2"))
mass = MassFunction.from_assignments(
    frame,
    {
        frame.subset(["w1"]): 5 / 6,      # strong evidence for w1 alone
        frame.subset(["w1", "w2"]): 1 / 6,  # residual "could be either"
    },
)

print("focal elements:")
for subset, value in mass.focal:
    print(f"  m({{{', '.join(subset.members)}}}) = {value:.6f}")

# The entropy credits the pair {w1, w2} with its 2^2 - 1 = 3 nonempty
# sub-possibilities, so it exceeds the Shannon entropy of (5/6, 1/6).
report = information_dimension(mass)
print(f"\nDeng entropy      : {report.entropy_bits:.4f} bits")
print(f"split scale       : {report.split_scale_bits:.4f} bits")
print(f"dimension         : {report.dimension:.4f}  (entropy / split scale)")
print(f"degenerate        : {report.degenerate}")

# The same mass function as the JSON the command-line tool reads:
print("\nJSON form for `evidim compute`:")
print(mass_to_json(mass))
