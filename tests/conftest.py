"""Shared corpus builders for the test suite."""

import random

from roac0 import And, Circuit, Leaf, Nand, Not, Or, gen_random_read_once
from roac0.circuit import fold
from roac0.fourier import biased_gap, level_profile_recursive, wht_bruteforce


def random_corpus(count, n_max, d_max, seed, n_min=2):
    """Deterministic list of random read-once circuits.

    Sizes are drawn in [n_min, n_max] and target depths in [1, d_max],
    all from one master seed, so any test naming (count, n_max, d_max,
    seed) pins down the exact circuits.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(n_min, n_max)
        d = rng.randint(1, d_max)
        out.append(gen_random_read_once(n, d, seed=rng.randrange(2**32)))
    return out


def deep_chain(depth: int) -> Circuit:
    """And/Or/Nand gates nested ``depth`` deep, one leaf each, NOTs sprinkled in."""
    node = Leaf(0)
    for i in range(1, depth + 1):
        gate = (And, Or, Nand)[i % 3]
        node = gate((node, Leaf(i, negated=i % 2 == 0)))
        if i % 5 == 0:
            node = Not(node)
    return Circuit(node, depth + 1)


def gap_paths(c, p) -> dict:
    """The coin-bias gap |sum_{k>=1} A^k p^k| three ways, for a float p.

    ``measure`` is the library's exact acceptance difference; ``profile``
    sums the float signed profile and ``table`` the transform's exact level
    sums times p^k (n <= WHT_CAP), both in float arithmetic.
    """
    sgn_f = level_profile_recursive(c, exact=False).signed_sum
    _, sgn_w = wht_bruteforce(c).level_sums()
    return {
        "measure": biased_gap(c, p),
        "profile": abs(sum(p**k * sgn_f[k] for k in range(1, c.n + 1))),
        "table": abs(sum(p**k * float(sgn_w[k]) for k in range(1, c.n + 1))),
    }


def reference_acceptance(c, q):
    """Pr[F = 1] folded in the entries' own arithmetic (Fractions, ints or
    floats, as given): the oracle for ``acceptance_probability``'s
    integer-pair fold, which must agree in value and type, and bit for bit
    in floats."""

    def leaf(var, negated):
        return 1 - q[var] if negated else q[var]

    def absorb(prod, acc, is_and):
        return prod * (acc if is_and else 1 - acc)

    return fold(c, leaf, lambda value: value, lambda: 1, absorb,
                lambda prod, is_and, nand: prod if is_and else 1 - prod)
