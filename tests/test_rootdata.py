import random
import time
from fractions import Fraction

import pytest

from dynwg.rootdata import (
    CorootVector,
    LieType,
    RootDataError,
    Weight,
    act,
    all_reduced_words,
    canonical_word,
    cartan_matrix,
    crossing_coroots,
    dominant_representative,
    is_reduced,
    longest_element,
    pairing,
    parse_word,
    positive_coroots,
    positive_roots_in_simple_basis,
    rho,
    simple_reflection,
    simple_root,
    two_rho_check,
    weyl_orbit,
    word_length,
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
    assert gammas == (CorootVector.make((0, 1)), CorootVector.make((1, 1)))


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


def test_longest_element_lengths():
    # number of positive roots: A2 -> 3, B2 -> 4, G2 -> 6, A3 -> 6
    assert len(longest_element(A2)) == 3
    assert len(longest_element(B2)) == 4
    assert len(longest_element(G2)) == 6
    assert len(longest_element(A3)) == 6
    assert act(A2, longest_element(A2), rho(A2)) == Weight((-1, -1))


def test_canonical_word_and_length():
    assert canonical_word(A2, (2, 1, 2)) == (1, 2, 1)
    assert canonical_word(A2, (1, 1)) == ()
    # s1 s2 s1 s2 = (s1 s2 s1) s2 = (s2 s1 s2) s2 = s2 s1, length 2
    assert word_length(A2, (1, 2, 1, 2)) == 2
    assert canonical_word(A2, (1, 2, 1, 2)) == (2, 1)


def test_all_reduced_words():
    assert all_reduced_words(A2, (1, 2, 1)) == [(1, 2, 1), (2, 1, 2)]
    # A3 longest element famously has 16 reduced words
    assert len(all_reduced_words(A3, longest_element(A3))) == 16
    assert len(all_reduced_words(A3, longest_element(A3), cap=5)) == 5


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


def test_two_rho_pairing():
    # <rho, gamma> summed over positive coroots equals <rho, 2 rho-check>
    for t in (A2, B2, G2, A3):
        total = sum(pairing(rho(t), g) for g in positive_coroots(t))
        assert total == pairing(rho(t), two_rho_check(t))
        # each simple root pairs to 2 against 2 rho-check? no -- but
        # <alpha_i, 2 rho-check in coroot coords> via the Cartan matrix is 2
        a = cartan_matrix(t)
        tr = two_rho_check(t)
        for i in range(t.rank):
            assert sum(tr.coords[k] * a[k][i] for k in range(t.rank)) == 2


def test_weyl_orbit_sizes():
    assert len(weyl_orbit(A2, Weight((1, 0)))) == 3
    assert len(weyl_orbit(B2, Weight((1, 0)))) == 4
    assert len(weyl_orbit(G2, Weight((0, 1)))) == 6
    assert len(weyl_orbit(A2, Weight((0, 0)))) == 1


def test_dominant_representative():
    for mu in weyl_orbit(A2, Weight((2, 1))):
        assert dominant_representative(A2, mu) == Weight((2, 1))


def test_weight_and_word_parsing():
    assert Weight.parse("1,0", 2) == Weight((1, 0))
    assert parse_word("1,2,1") == (1, 2, 1)
    assert parse_word("") == ()
    with pytest.raises(RootDataError):
        Weight.parse("1", 2)


def test_pairing_is_fraction():
    g = CorootVector.make((1, 1))
    assert pairing(Weight((2, 3)), g) == Fraction(5)
