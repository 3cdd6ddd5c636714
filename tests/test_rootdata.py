import random
import time
from fractions import Fraction

import pytest

from dynwg import rep
from dynwg.rootdata import (
    _RANK_RULES,
    CorootVector,
    LieType,
    RootDataError,
    Weight,
    act,
    all_reduced_words,
    cartan_matrix,
    crossing_coroots,
    is_reduced,
    longest_element,
    pairing,
    parse_word,
    positive_coroots,
    positive_roots_in_simple_basis,
    rho,
    simple_reflection,
    simple_root,
)

A1 = LieType.parse("A1")
A2 = LieType.parse("A2")
A3 = LieType.parse("A3")
B2 = LieType.parse("B2")
G2 = LieType.parse("G2")


def test_type_parsing():
    assert str(LieType.parse("D4")) == "D4"
    for bad in ("A0", "B1", "G3", "H2", "E9", "X", "2"):
        with pytest.raises(RootDataError):
            LieType.parse(bad)


def test_cartan_matrices():
    assert cartan_matrix(A2) == ((2, -1), (-1, 2))
    assert cartan_matrix(B2) == ((2, -1), (-2, 2))
    assert cartan_matrix(G2) == ((2, -1), (-3, 2))
    a = cartan_matrix(LieType.parse("C3"))
    assert a[1][2] == -2 and a[2][1] == -1


def test_simple_reflection_by_hand():
    # s1(omega_1) = omega_1 - alpha_1 = (1,0) - (2,-1) = (-1,1)
    assert simple_reflection(A2, 1, Weight((1, 0))) == Weight((-1, 1))
    assert simple_reflection(A2, 2, Weight((1, 0))) == Weight((1, 0))
    # applying the reflection twice is the identity
    mu = Weight((3, -2))
    assert simple_reflection(A2, 1, simple_reflection(A2, 1, mu)) == mu


def test_act_rightmost_first():
    # w0(omega_1) = -omega_2 in A2; step by step:
    # s1(1,0)=(-1,1), s2(-1,1)=(0,-1), s1(0,-1)=(0,-1)
    assert act(A2, (1, 2, 1), Weight((1, 0))) == Weight((0, -1))
    assert act(A2, (), Weight((1, 0))) == Weight((1, 0))


def test_crossing_coroots_by_hand():
    # stored (1,2): s2 acts first, so gamma_1 = coroot_2,
    # gamma_2 = s2(coroot_1) = coroot_1 + coroot_2
    gammas = crossing_coroots(A2, (1, 2))
    assert gammas == (CorootVector((0, 1)), CorootVector((1, 1)))


def test_reducedness():
    assert is_reduced(A2, (1, 2, 1))
    assert not is_reduced(A2, (1, 1))
    assert not is_reduced(A2, (1, 2, 1, 2))  # braid-equivalent to s2, length 4 > 1
    with pytest.raises(RootDataError):
        crossing_coroots(A2, (2, 2))


def test_crossing_coroots_memo_keeps_rejecting_non_reduced():
    assert not is_reduced(A2, (2, 2))  # fills the memo for (A2, (2, 2))
    for _ in range(2):
        with pytest.raises(RootDataError):
            crossing_coroots(A2, (2, 2))
    gammas = crossing_coroots(A2, [1, 2])
    assert isinstance(gammas, tuple) and gammas is crossing_coroots(A2, (1, 2))
    with pytest.raises(RootDataError):
        crossing_coroots(A2, (1, 3))  # no simple root 3


def test_simple_root_memo_keeps_rejecting_bad_indices():
    assert simple_root(G2, 1) == Weight((2, -3)) and simple_root(G2, 1) is simple_root(G2, 1)
    assert simple_root(B2, 1) == Weight((2, -2))  # the memo keys on the type
    for _ in range(2):
        for i in (0, 3, -1):
            with pytest.raises(RootDataError):
                simple_root(G2, i)


def test_longest_element_lengths():
    # number of positive roots: A2 -> 3, B2 -> 4, G2 -> 6, A3 -> 6
    assert len(longest_element(A2)) == 3
    assert len(longest_element(B2)) == 4
    assert len(longest_element(G2)) == 6
    assert len(longest_element(A3)) == 6
    assert act(A2, longest_element(A2), rho(A2)) == Weight((-1, -1))


def test_all_reduced_words():
    assert all_reduced_words(A2, (1, 2, 1)) == [(1, 2, 1), (2, 1, 2)]
    # A3 longest element famously has 16 reduced words
    assert len(all_reduced_words(A3, longest_element(A3))) == 16
    assert len(all_reduced_words(A3, longest_element(A3), cap=5)) == 5
    with pytest.raises(ValueError, match="^cap must be >= 1$"):
        all_reduced_words(A2, (1, 2), cap=0)
    with pytest.raises(RootDataError, match=r"^word \[1, 2, 2\] is not reduced$"):
        all_reduced_words(A2, (1, 2, 2))


def canonical_word(t, word):
    """The lex-smallest reduced word of the element the word represents, read
    off w(rho): each letter is the first i with <w(rho), alphacheck_i> < 0."""
    letters, cur = [], act(t, word, rho(t))
    while not cur.is_dominant():
        i = next(k + 1 for k, c in enumerate(cur.coords) if c < 0)
        letters.append(i)
        cur = simple_reflection(t, i, cur)
    return tuple(letters)


def braid_closure_words(t, word):
    """Oracle: every reduced word of the element, by closing {word} under braid
    moves (Matsumoto), sorted."""
    a = cartan_matrix(t)
    m_table = {0: 2, 1: 3, 2: 4, 3: 6}
    moves = []
    for i in range(1, t.rank + 1):
        for j in range(1, t.rank + 1):
            if i != j:
                m = m_table[a[i - 1][j - 1] * a[j - 1][i - 1]]
                moves.append((tuple(i if k % 2 == 0 else j for k in range(m)),
                              tuple(j if k % 2 == 0 else i for k in range(m))))
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for w in frontier:
            for pos in range(len(w)):
                for pattern, repl in moves:
                    if w[pos:pos + len(pattern)] == pattern:
                        w2 = w[:pos] + repl + w[pos + len(pattern):]
                        if w2 not in seen:
                            seen.add(w2)
                            nxt.append(w2)
        frontier = nxt
    return sorted(seen)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"])
def test_all_reduced_words_matches_braid_closure(name):
    t = LieType.parse(name)
    rng = random.Random(name)
    elements = [longest_element(t), ()] + [
        canonical_word(t, tuple(rng.randint(1, t.rank) for _ in range(rng.randint(1, 12))))
        for _ in range(4)
    ]
    for word in elements:
        expected = braid_closure_words(t, word)
        for cap in (1, 2, 7, 32, len(expected), len(expected) + 5):
            assert all_reduced_words(t, word, cap=cap) == expected[:cap], (word, cap)


def test_all_reduced_words_stops_at_cap():
    # A5's longest element has 292,864 reduced words
    t = LieType.parse("A5")
    start = time.perf_counter()
    words = all_reduced_words(t, longest_element(t), cap=32)
    assert time.perf_counter() - start < 2.0
    assert len(words) == 32 and words == sorted(words)
    assert all(is_reduced(t, w) and act(t, w, rho(t)) == act(t, words[0], rho(t)) for w in words)


def test_positive_coroots_counts():
    assert len(positive_coroots(A2)) == 3
    assert len(positive_coroots(B2)) == 4
    assert len(positive_coroots(G2)) == 6
    assert len(positive_roots_in_simple_basis(G2)) == 6
    # with alpha_1 long, the highest root of G2 is 2*alpha_1 + 3*alpha_2
    assert max(positive_roots_in_simple_basis(G2), key=sum) == (2, 3)


# |positive roots| of each series, as a function of the rank
POSITIVE_ROOT_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": {6: 36, 7: 63, 8: 120}.get,
    "F": lambda r: 24,
    "G": lambda r: 6,
}


def test_positive_roots_and_coroots_of_every_type_through_rank_8():
    types = [LieType(s, r) for s in POSITIVE_ROOT_COUNTS for r in range(1, 9)
             if _RANK_RULES[s](r)]
    assert len(types) == 33
    for t in types:
        roots, coroots = positive_roots_in_simple_basis(t), positive_coroots(t)
        n = POSITIVE_ROOT_COUNTS[t.series](t.rank)
        assert len(roots) == len(set(roots)) == len(coroots) == len(set(coroots)) == n, t
        for system in (roots, [g.coords for g in coroots]):
            assert all(type(c) is int and c >= 0 for v in system for c in v), t
            assert list(system) == sorted(system, key=lambda v: (sum(v), v)), t
        # the coroots of B_n are the roots of C_n, and the other way round
        if t.series in "BC":
            dual = LieType("C" if t.series == "B" else "B", t.rank)
            assert [g.coords for g in coroots] == list(positive_roots_in_simple_basis(dual)), t
        # simply laced: roots and coroots have the same coordinates
        if t.series in "ADE":
            assert [g.coords for g in coroots] == list(roots), t


def test_coroot_coordinates_are_integers():
    for g in positive_coroots(G2):
        assert all(type(c) is int for c in g.coords) and type(g.height()) is int
    g = CorootVector((1, 2, 3))
    assert g.height() == 6 and type(g.height()) is int


def test_weight_coordinates_are_integers():
    w = Weight.make((1, Fraction(-2), 3.0))
    assert w == Weight((1, -2, 3)) and all(type(c) is int for c in w.coords)
    for coords in ((1.5, 0), (-1.5, 1.2), (1, Fraction(1, 2)), ("1", 0)):
        with pytest.raises(RootDataError):
            Weight.make(coords)


def weyl_orbit(t, mu):
    """Oracle: the full W-orbit of a weight (small ranks only)."""
    seen = {mu}
    frontier = [mu]
    while frontier:
        nxt = []
        for nu in frontier:
            for i in range(1, t.rank + 1):
                m2 = simple_reflection(t, i, nu)
                if m2 not in seen:
                    seen.add(m2)
                    nxt.append(m2)
        frontier = nxt
    return seen


def test_weyl_orbit_sizes():
    assert len(weyl_orbit(A2, Weight((1, 0)))) == 3
    assert len(weyl_orbit(B2, Weight((1, 0)))) == 4
    assert len(weyl_orbit(G2, Weight((0, 1)))) == 6
    assert len(weyl_orbit(A2, Weight((0, 0)))) == 1


def dominant_representative(t, mu):
    """Oracle: the dominant W-conjugate of mu, by reflecting in the first
    negative coordinate until there is none."""
    while not mu.is_dominant():
        i = next(k + 1 for k, c in enumerate(mu.coords) if c < 0)
        mu = simple_reflection(t, i, mu)
    return mu


def test_dominant_representative():
    for t, lam in ((A2, (2, 1)), (B2, (1, 1)), (G2, (1, 2)), (LieType.parse("D4"), (0, 1, 0, 0))):
        for mu in weyl_orbit(t, Weight(lam)):
            assert dominant_representative(t, mu) == Weight(lam)
            assert rep._dominant(t, mu.coords) == lam


def test_weight_and_word_parsing():
    assert Weight.parse("1,0", 2) == Weight((1, 0))
    assert parse_word("1,2,1") == (1, 2, 1)
    assert parse_word("") == ()
    with pytest.raises(RootDataError):
        Weight.parse("1", 2)
    for text in ("1,x", ",", "1.5,0", "1_0,1"):
        with pytest.raises(RootDataError, match="not a comma-separated list of integers"):
            Weight.parse(text, 2)
    for text in ("1,,2", "1,x", "2,"):
        with pytest.raises(RootDataError, match=f"'{text}' is not a comma-separated list"):
            parse_word(text)


def test_pairing_is_an_int():
    g = CorootVector((1, 1))
    p = pairing(Weight((2, 3)), g)
    assert p == 5 and type(p) is int
