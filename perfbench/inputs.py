"""Seeded input generators for the three workloads.

Everything here is benchmark-side: determinants, definiteness and the
cyclic factors of L^dual/L are computed with this file's own integer code, so
the program under test only ever sees the generated Gram matrices and
command lines.

Each workload is a sequence of *rounds*.  In census and isometry a round
holds POOL_PER_STRATUM lattices from each stratum.  For the strata of rank
>= 3 these are the same lattices in every round of every run: they are
drawn once from a seed-independent random stream.  Rank-2 strata draw new
lattices each round from that stream.  The seed picks the basis each
lattice is presented in (a random signed permutation, plus small shears
should that Gram matrix have occurred before) and the order of the jobs.
So each seed gives other Gram matrices, no Gram matrix repeats within a
run, and yet every run covers the same lattices.  A job's cost depends on
the lattice far more than on its basis, and is heavy-tailed: when each
seed drew lattices of its own, the rare expensive one (a large O(L), a
highly composite |A_L|) decided the job rate of whichever seed drew it.
"""

from __future__ import annotations

import itertools
import random
from math import gcd, isqrt

DEFAULT_SEED = 1

# -- golden: the README command lines on the fixed lattice --------------------

GOLDEN_COMMANDS = tuple(
    tuple(cmd) + fmt
    for cmd in (
        ("classify", "--m", "2"),
        ("classify", "--m", "3"),
        ("classify", "--m", "6"),
        ("verify-table", "orbits"),
        ("verify-table", "cases"),
        ("orbits", "--norm", "6"),
        ("orbits", "--norm", "6", "--full-group"),
    )
    for fmt in ((), ("--format", "md"))
)


def is_verify_cases(argv) -> bool:
    return tuple(argv[:2]) == ("verify-table", "cases")


# -- census and isometry strata ----------------------------------------------

# (rank, definite, |det| low, |det| high, cyclic factors of A_L); None means
# "either".  A job's cost grows roughly like |A_L|^2 times the number of
# divisors of |A_L|, and much faster for non-cyclic A_L, so the strata pin
# both; |det| stays <= 120 so that a run holds a few hundred jobs and no
# single draw decides its rate.
CENSUS_STRATA = (
    (2, True, 3, 60, 1),
    (2, False, 3, 60, 1),
    (3, True, 3, 60, 1),
    (3, False, 3, 60, 1),
    (2, None, 61, 120, 1),
    (3, True, 80, 120, 1),
    (3, False, 80, 120, 1),
    (2, None, 16, 64, 2),
    (3, None, 16, 64, 2),
)

# (rank, candidate load low, high); every isometry lattice is positive
# definite with 9 <= det <= 400.  The candidate load is the number of
# vectors whose norm equals some diagonal Gram entry, summed over the
# diagonal: the candidate images the O(L) backtracking starts from.  It
# predicts a job's cost far better than det does, and its cap keeps out the
# root-lattice-like cases (D4 in a skewed basis takes ~20 s alone).
ISOMETRY_STRATA = (
    (3, 0, 40),
    (3, 0, 40),
    (4, 0, 32),
    (4, 0, 32),
    (4, 33, 48),
    (4, 33, 48),
)
ISOMETRY_DET = (9, 400)


MAX_TRIES = 20_000
POOL_PER_STRATUM = 4
POOL_TRIES = 200
PRESENT_TRIES = 50
# Rank >= 3 draws get up to SKEW_OPS unimodular basis changes (see _skew),
# so that they are not all reduced.  Rank-2 forms are built directly from
# their determinant with |b| <= RANK2_MAX_B.
SKEW_OPS = 2
RANK2_MAX_B = 24


def det_int(m) -> int:
    """Determinant of a small square integer matrix (Laplace expansion)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det_int(minor)
    return total


def _minors(m, k):
    subsets = list(itertools.combinations(range(len(m)), k))
    for r in subsets:
        for c in subsets:
            yield det_int([[m[i][j] for j in c] for i in r])


def is_positive_definite(m) -> bool:
    """Sylvester's criterion on the leading principal minors."""
    return all(det_int([row[:k] for row in m[:k]]) > 0 for k in range(1, len(m) + 1))


def discriminant_factors(m) -> int:
    """Number of nontrivial cyclic factors of L^dual/L, for |det| > 1.

    The k-th determinantal divisor D_k (gcd of the k-minors) is 1 exactly
    while the first k invariant factors are 1.
    """
    n = len(m)
    k = 0
    while k < n - 1:
        g = 0
        for minor in _minors(m, k + 1):
            g = gcd(g, minor)
            if g == 1:
                break
        if g != 1:
            break
        k += 1
    return n - k


def count_vectors_of_norm(gram, norm):
    """Vectors x of a positive definite lattice with x^T G x == norm.

    Scans the box |x_i| <= sqrt(norm * (G^-1)_ii) in the first n-1
    coordinates and solves the quadratic in the last one exactly.
    """
    n = len(gram)
    d = det_int(gram)

    def cofactor(i):
        return det_int([[gram[r][c] for c in range(n) if c != i] for r in range(n) if r != i])

    bounds = [isqrt(norm * cofactor(i) // d) for i in range(n - 1)]
    a = gram[n - 1][n - 1]
    count = 0
    for head in itertools.product(*(range(-b, b + 1) for b in bounds)):
        s = sum(gram[n - 1][j] * head[j] for j in range(n - 1))
        rest = sum(gram[i][j] * head[i] * head[j] for i in range(n - 1) for j in range(n - 1))
        disc = s * s - a * (rest - norm)
        if disc < 0:
            continue
        r = isqrt(disc)
        if r * r == disc:
            count += len({(-s + e * r) // a for e in (1, -1) if (-s + e * r) % a == 0})
    return count


def candidate_load(gram, limit=None) -> int:
    """Sum over the diagonal of the number of vectors of that norm.

    Stops early, returning a value above ``limit``, once the sum passes it.
    """
    total = 0
    counts: dict = {}
    for norm in sorted(gram[i][i] for i in range(len(gram))):
        if norm not in counts:
            counts[norm] = count_vectors_of_norm(gram, norm)
        total += counts[norm]
        if limit is not None and total > limit:
            break
    return total


def _binary_gram(rng, definite, lo, hi):
    """[[2a, b], [b, 2c]] with lo <= |4ac - b^2| <= hi, or None."""
    d = rng.randint(lo, hi)
    b = rng.randint(-RANK2_MAX_B, RANK2_MAX_B)
    four_ac = d + b * b if definite else b * b - d
    if four_ac == 0 or four_ac % 4:
        return None
    ac = four_ac // 4
    a = rng.choice([k for k in range(1, abs(ac) + 1) if ac % k == 0])
    if not definite:
        a *= rng.choice((1, -1))
    return [[2 * a, b], [b, 2 * (ac // a)]]


def _random_gram(rng, rank, definite, max_offdiag):
    halves = range(1, 6)
    diag = tuple(halves) if definite else tuple(halves) + tuple(-h for h in halves)
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = 2 * rng.choice(diag)
        for j in range(i + 1, rank):
            g[i][j] = g[j][i] = rng.randint(-max_offdiag, max_offdiag)
    return g


def _skew(rng, g, ops):
    """Apply ``ops`` random unimodular basis changes b_j += t*b_i, t = +-1.

    The result has the same determinant, signature and discriminant form,
    but is a different Gram matrix.
    """
    n = len(g)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-1, 1))
        g = [list(row) for row in g]
        for k in range(n):
            g[j][k] += t * g[i][k]
        for k in range(n):
            g[k][j] += t * g[k][i]
    return g


def _draw(rng, stratum, keys, max_offdiag=3, skew_ops=0, load=None):
    """Rejection-sample one even Gram matrix of a census-style stratum.

    A class key in ``keys`` is passed over POOL_TRIES times before one is
    accepted anyway.  ``load`` bounds the candidate_load.
    """
    rank, definite, lo, hi, factors = stratum
    repeats = 0
    for _ in range(MAX_TRIES):
        want_definite = rng.random() < 0.5 if definite is None else definite
        if rank == 2:
            g = _binary_gram(rng, want_definite, lo, hi)
            if g is None:
                continue
        else:
            g = _random_gram(rng, rank, want_definite, max_offdiag)
        if not lo <= abs(det_int(g)) <= hi:
            continue
        if is_positive_definite(g) != want_definite:
            continue
        g = tuple(map(tuple, _skew(rng, g, rng.randint(0, skew_ops))))
        if _class_key(g) in keys and repeats < POOL_TRIES:
            repeats += 1
            continue
        if factors is not None and discriminant_factors(g) != factors:
            continue
        if load is not None and not load[0] <= candidate_load(g, load[1]) <= load[1]:
            continue
        return g
    raise RuntimeError(f"no lattice found for stratum {stratum}")


def _class_key(gram):
    """An invariant of a Gram matrix under signed permutations of its basis."""
    n = len(gram)
    return (
        det_int(gram),
        tuple(sorted(gram[i][i] for i in range(n))),
        tuple(sorted(abs(gram[i][j]) for i in range(n) for j in range(i + 1, n))),
    )


def _pool_rounds(workload, strata, draw):
    """Seed-independent base inputs: POOL_PER_STRATUM per stratum per round.

    Strata of rank >= 3 repeat the same classes every round.  Rank-2 strata
    draw fresh classes each round instead: a rank-2 class has only a few
    small Gram matrices, so repeating it would force ever larger entries.
    They are cheap, so their changing draws barely move the job rate.
    """
    rng = random.Random(f"{workload}:pool")
    keys: set = set()

    def fresh(stratum):
        base = draw(rng, stratum, keys)
        keys.add(_class_key(base["gram"]))
        return base

    fixed = {j: [fresh(st) for _ in range(POOL_PER_STRATUM)]
             for j, st in enumerate(strata) if st[0] > 2}
    while True:
        bases = []
        for j, stratum in enumerate(strata):
            bases += fixed.get(j) or [fresh(stratum) for _ in range(POOL_PER_STRATUM)]
        yield bases


def _present(rng, seen, base):
    """A base input in a seeded basis that has not occurred in the run.

    The basis change is a random signed permutation times a unitriangular
    shear whose entries start at 0 and widen only once PRESENT_TRIES draws
    in a row gave Gram matrices already seen, so entries stay small.
    """
    gram = base["gram"]
    n = len(gram)
    bound = 0
    while True:
        for _ in range(PRESENT_TRIES):
            perm = rng.sample(range(n), n)
            sign = [rng.choice((1, -1)) for _ in range(n)]
            shear = [[int(i == j) or (rng.randint(-bound, bound) if i < j else 0)
                      for j in range(n)] for i in range(n)]
            u = [[sign[i] * shear[perm[i]][j] for j in range(n)] for i in range(n)]
            g = tuple(
                tuple(sum(u[k][i] * gram[k][l] * u[l][j] for k in range(n) for l in range(n))
                      for j in range(n))
                for i in range(n)
            )
            if g not in seen:
                seen.add(g)
                return {**base, "gram": g}
        bound += 1


def _seeded_rounds(workload, seed, strata, draw):
    rng = random.Random(f"{workload}:{seed}")
    seen: set = set()
    for bases in _pool_rounds(workload, strata, draw):
        round_ = [_present(rng, seen, base) for base in bases]
        rng.shuffle(round_)
        yield round_


def _census_base(rng, stratum, keys):
    gram = _draw(rng, stratum, keys, skew_ops=0 if stratum[0] == 2 else SKEW_OPS)
    return {"gram": gram, "definite": is_positive_definite(gram)}


def _isometry_base(rng, stratum, keys):
    rank, lo, hi = stratum
    gram = _draw(rng, (rank, True, *ISOMETRY_DET, None), keys,
                 max_offdiag=2, skew_ops=SKEW_OPS, load=(lo, hi))
    return {"gram": gram, "norm": rng.choice([gram[i][i] for i in range(rank)])}


def golden_rounds(seed):
    """Endless rounds; each is every golden command once, in a seeded order."""
    rng = random.Random(f"golden:{seed}")
    while True:
        order = list(GOLDEN_COMMANDS)
        rng.shuffle(order)
        yield [{"argv": list(argv)} for argv in order]


def census_rounds(seed):
    return _seeded_rounds("census", seed, CENSUS_STRATA, _census_base)


def isometry_rounds(seed):
    return _seeded_rounds("isometry", seed, ISOMETRY_STRATA, _isometry_base)


ROUNDS = {"golden": golden_rounds, "census": census_rounds, "isometry": isometry_rounds}


def first_rounds(workload, seed, count):
    gen = ROUNDS[workload](seed)
    return [next(gen) for _ in range(count)]
