"""Self-tests of the benchmark's reference values.

Each reference formula must reproduce a value worked out by hand, and the
comparison the benchmark makes with it must reject a perturbed value.

    python3 bench/selftest.py
"""

from __future__ import annotations

import sys
from fractions import Fraction

import reference as ref


def _accepts_only(name, got, want, eps):
    """The exact comparison the benchmark uses holds for got and fails for got + eps."""
    problems = []
    if got != want:
        problems.append(f"{name}: reference gives {got}, hand value is {want}")
    if got + eps == want:
        problems.append(f"{name}: a value perturbed by {eps} is accepted")
    return problems


def run():
    """Problems found, as messages; empty when every self-test passes."""
    problems = []
    problems += _accepts_only(
        "pipeline at sizes (3,1,1,1,1,1)",
        ref.pipeline_value((3, 1, 1, 1, 1, 1)),
        -Fraction(3**105, 2**2016),
        Fraction(1, 2**2100),
    )
    y = tuple(Fraction(w, 7) for w in (1, 2, 1, 1, 1, 1))
    problems += _accepts_only(
        "t(x; H6) at y = (1,2,1,1,1,1)/7",
        ref.counterexample_value(y),
        Fraction(2, 40353607),
        Fraction(1, 10**12),
    )
    uniform = (Fraction(1, 6),) * 6
    problems += _accepts_only(
        "t(x; H6) at uniform weights", ref.counterexample_value(uniform), 0, Fraction(1, 10**12)
    )
    # The term dictionary is the same polynomial as the closed formula.
    terms = ref.counterexample_polynomial()
    for point in (y, uniform, tuple(Fraction(w, 21) for w in range(1, 7))):
        value = 0
        for exps, coeff in terms.items():
            for yi, e in zip(point, exps):
                coeff *= yi**e
            value += coeff
        problems += _accepts_only(
            f"term dictionary at {point}", value, ref.counterexample_value(point), Fraction(1, 10**30)
        )
    # Brute-force densities: t(K2; K3) = 2/3, t(P3; K3) = 4/9, and the
    # pendant edge rooted at label 1 squares to P3.
    k3 = ref.weighted_target(3, ((0, 1), (0, 2), (1, 2)), (1, 1, 1))
    problems += _accepts_only(
        "t(K2; K3)", ref.rooted_density(2, ((0, 1),), {}, k3), Fraction(2, 3), Fraction(1, 9)
    )
    problems += _accepts_only(
        "t(P3; K3)", ref.rooted_density(3, ((0, 1), (1, 2)), {}, k3), Fraction(4, 9), Fraction(1, 9)
    )
    pendant = [[(Fraction(1), (2, ((0, 1),), ((1, 0),)))]]
    problems += _accepts_only(
        "E_phi[t(pendant edge; phi)^2] on K3",
        ref.sum_of_squares_value(pendant, k3, labels=(1,)),
        Fraction(4, 9),
        Fraction(1, 9),
    )
    problems += _accepts_only("|Aut(P3)|", ref.automorphism_count(3, ((0, 1), (1, 2))), 2, 1)
    problems += _accepts_only("|Aut(K3)|", ref.automorphism_count(3, ((0, 1), (0, 2), (1, 2))), 6, 1)
    if not ref.covers_all_classes(3, [(), ((0, 1),), ((0, 1), (1, 2)), ((0, 1), (0, 2), (1, 2))]):
        problems.append("the four 3-vertex graphs do not cover all classes")
    if ref.covers_all_classes(3, [(), ((0, 1),), ((0, 1), (1, 2)), ((0, 1), (1, 2))]):
        problems.append("a list repeating P3 and missing K3 passes the class check")
    return problems


if __name__ == "__main__":
    found = run()
    for message in found:
        print(f"FAIL {message}")
    print("selftest:", "FAIL" if found else "PASS")
    sys.exit(1 if found else 0)
