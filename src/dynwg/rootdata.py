"""Root data and Weyl group combinatorics for the finite types.

Conventions (documented in the README):
  * Bourbaki numbering of simple roots for every series.
  * Cartan matrix A[i][j] = <alpha_j, alphacheck_i>.
  * Weights are stored by their pairings with the simple coroots
    (fundamental-weight coordinates); coroots in the simple-coroot basis.
  * A Weyl word (i_l, ..., i_1) denotes s_{i_l} ... s_{i_1}: the rightmost
    stored letter acts first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

WeylWord = tuple[int, ...]

_RANK_RULES = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 3,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


class RootDataError(Exception):
    pass


@dataclass(frozen=True)
class LieType:
    series: str
    rank: int

    def __post_init__(self):
        rule = _RANK_RULES.get(self.series)
        if rule is None or not rule(self.rank):
            raise RootDataError(f"invalid Lie type {self.series}{self.rank}")

    @staticmethod
    def parse(text: str) -> "LieType":
        text = text.strip()
        if len(text) < 2 or text[0] not in _RANK_RULES or not text[1:].isdigit():
            raise RootDataError(f"cannot parse Lie type {text!r}")
        return LieType(text[0], int(text[1:]))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


@dataclass(frozen=True)
class Weight:
    """Integral weight in fundamental-weight coordinates (<mu, alphacheck_i>)."""

    coords: tuple[int, ...]

    @staticmethod
    def make(coords) -> "Weight":
        return Weight(tuple(int(c) for c in coords))

    @staticmethod
    def parse(text: str, rank: int) -> "Weight":
        parts = [p.strip() for p in text.split(",")] if text.strip() else []
        if len(parts) != rank:
            raise RootDataError(f"weight {text!r} has wrong length for rank {rank}")
        return Weight(tuple(int(p) for p in parts))

    def __getitem__(self, i: int) -> int:
        return self.coords[i]

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


@dataclass(frozen=True)
class CorootVector:
    """Coroot-lattice vector in the basis of simple coroots."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def make(coords) -> "CorootVector":
        return CorootVector(tuple(Fraction(c) for c in coords))

    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coords) and any(self.coords)

    def height(self) -> Fraction:
        return sum(self.coords, Fraction(0))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


def parse_word(text: str) -> WeylWord:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


@lru_cache(maxsize=None)
def cartan_matrix(t: LieType) -> tuple[tuple[int, ...], ...]:
    """Bourbaki Cartan matrix, A[i][j] = <alpha_j, alphacheck_i>."""
    r = t.rank
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    s = t.series
    if s == "A":
        for i in range(r - 1):
            bond(i, i + 1)
    elif s == "B":
        # alpha_r short: the short root's row carries the -2
        for i in range(r - 2):
            bond(i, i + 1)
        bond(r - 2, r - 1, -1, -2)
    elif s == "C":
        # alpha_r long
        for i in range(r - 2):
            bond(i, i + 1)
        bond(r - 2, r - 1, -2, -1)
    elif s == "D":
        for i in range(r - 2):
            bond(i, i + 1)
        bond(r - 3, r - 1)
    elif s == "E":
        # chain 1-3-4-5-...-r with node 2 attached to node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: r - 1]
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    elif s == "F":
        # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif s == "G":
        # alpha_1 long, alpha_2 short
        bond(0, 1, -1, -3)
    return tuple(tuple(row) for row in a)


@lru_cache(maxsize=None)
def simple_root(t: LieType, i: int) -> Weight:
    """alpha_i in fundamental coordinates: column i of the Cartan matrix."""
    _check_index(t, i)
    a = cartan_matrix(t)
    return Weight(tuple(a[j][i - 1] for j in range(t.rank)))


def _check_index(t: LieType, i: int):
    if not 1 <= i <= t.rank:
        raise RootDataError(f"simple-reflection index {i} out of range for {t}")


def simple_reflection(t: LieType, i: int, mu: Weight) -> Weight:
    """s_i(mu) = mu - <mu, alphacheck_i> alpha_i."""
    _check_index(t, i)
    c = mu.coords[i - 1]
    if not c:
        return mu
    alpha = simple_root(t, i)
    return Weight(tuple(m - c * a for m, a in zip(mu.coords, alpha.coords)))


def act(t: LieType, word: WeylWord, mu: Weight) -> Weight:
    """Apply the word as a composition of reflections: the last letter acts first."""
    for i in reversed(word):
        mu = simple_reflection(t, i, mu)
    return mu


def reflect_coroot(t: LieType, j: int, gamma: CorootVector) -> CorootVector:
    """s_j on the coroot lattice: gamma - <alpha_j, gamma> alphacheck_j."""
    _check_index(t, j)
    a = cartan_matrix(t)
    pairing = sum(c * a[k][j - 1] for k, c in enumerate(gamma.coords))
    coords = list(gamma.coords)
    coords[j - 1] -= pairing
    return CorootVector(tuple(coords))


def simple_coroot(t: LieType, i: int) -> CorootVector:
    _check_index(t, i)
    return CorootVector.make(tuple(1 if j == i - 1 else 0 for j in range(t.rank)))


def pairing(mu: Weight, gamma: CorootVector) -> Fraction:
    """<mu, gamma> for a weight and a coroot-lattice vector."""
    return sum((c * m for c, m in zip(gamma.coords, mu.coords)), Fraction(0))


def crossing_coroots(t: LieType, word: WeylWord) -> tuple[CorootVector, ...]:
    """gamma_t = s_{i_1}...s_{i_{t-1}}(alphacheck_{i_t}) for the stored word
    (i_l, ..., i_1); all positive and distinct iff the word is reduced."""
    if not is_reduced(t, word):
        raise RootDataError(f"word {list(word)} is not reduced")
    return _crossing_coroots_raw(t, tuple(word))


@lru_cache(maxsize=None)
def _crossing_coroots_raw(t: LieType, word: WeylWord) -> tuple[CorootVector, ...]:
    applied = tuple(reversed(word))  # i_1 first
    gammas = []
    for idx, letter in enumerate(applied):
        g = simple_coroot(t, letter)
        for j in reversed(applied[:idx]):
            g = reflect_coroot(t, j, g)
        gammas.append(g)
    return tuple(gammas)


def is_reduced(t: LieType, word: WeylWord) -> bool:
    for i in word:
        _check_index(t, i)
    gammas = _crossing_coroots_raw(t, tuple(word))
    return len(set(gammas)) == len(gammas) and all(g.is_positive() for g in gammas)


@lru_cache(maxsize=None)
def positive_coroots(t: LieType) -> tuple[CorootVector, ...]:
    """All positive coroots, found by reflection closure from the simple ones."""
    seen = {simple_coroot(t, i) for i in range(1, t.rank + 1)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for j in range(1, t.rank + 1):
                h = reflect_coroot(t, j, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    pos = sorted((g for g in seen if g.is_positive()), key=lambda g: (g.height(), g.coords))
    return tuple(pos)


@lru_cache(maxsize=None)
def positive_roots_in_simple_basis(t: LieType) -> tuple[tuple[int, ...], ...]:
    """Positive roots as integer vectors in the simple-root basis."""
    a = cartan_matrix(t)
    r = t.rank
    simple = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for c in frontier:
            pair = [sum(a[j][k] * c[k] for k in range(r)) for j in range(r)]
            for j in range(r):
                d = list(c)
                d[j] -= pair[j]
                d = tuple(d)
                if d not in seen:
                    seen.add(d)
                    nxt.append(d)
        frontier = nxt
    pos = sorted(c for c in seen if all(x >= 0 for x in c) and any(c))
    return tuple(sorted(pos, key=lambda c: (sum(c), c)))


def rho(t: LieType) -> Weight:
    return Weight((1,) * t.rank)


@lru_cache(maxsize=None)
def longest_element(t: LieType) -> WeylWord:
    """Lex-smallest reduced word of w0, read off w0(rho) = -rho: each letter is
    the first left descent i, <w(rho), alphacheck_i> < 0, of the remaining w."""
    letters = []
    cur = Weight((-1,) * t.rank)
    while not cur.is_dominant():
        i = next(k + 1 for k, c in enumerate(cur.coords) if c < 0)
        letters.append(i)
        cur = simple_reflection(t, i, cur)
    return tuple(letters)


def all_reduced_words(t: LieType, word: WeylWord, cap: int = 1000) -> list[WeylWord]:
    """The first cap reduced words, in lexicographic order, of the element
    the word represents.

    Depth-first by first letter: i starts a reduced word of w iff i is a left
    descent of w, that is <w(rho), alphacheck_i> < 0, and the rest is then a
    reduced word of s_i w.  Every branch ends in a reduced word, so the search
    stops after cap words, whatever the number of reduced words of w."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if not is_reduced(t, word):
        raise RootDataError(f"word {list(word)} is not reduced")
    words: list[WeylWord] = []
    prefix: list[int] = []

    def extend(w_rho: Weight):
        if w_rho.is_dominant():  # w(rho) = rho: w is the identity
            words.append(tuple(prefix))
            return
        for i in range(1, t.rank + 1):
            if w_rho[i - 1] < 0 and len(words) < cap:
                prefix.append(i)
                extend(simple_reflection(t, i, w_rho))
                prefix.pop()

    extend(act(t, word, rho(t)))
    return words

