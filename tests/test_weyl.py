import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from flagheight import weyl
from flagheight.height import (
    height_all_methods,
    height_fixed_point,
    height_harmo_bott,
    height_substitution,
)
from flagheight.parabolic import NotAmple, build_parabolic
from flagheight.rootsys import InvariantViolation, build_root_system
from flagheight.weyl import (
    DEFAULT_CAP,
    GroupTooLarge,
    coset_orbit,
    coset_representatives,
    dotted_act,
    enumerate_weyl,
    longest_element,
    to_dominant_dotted,
    w0_negates,
    weyl_order,
)
from oracles import (
    element_from_word,
    negated,
    root_to_weight,
    subgroup_order,
    to_dominant_dotted_by_reflection,
)

ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "C3": 48,
          "D4": 192, "F4": 1152, "G2": 12, "E6": 51840, "B2xA1": 16,
          "E7": 2903040, "E8": 696729600, "A8": 362880, "B8": 10321920,
          "C8": 10321920, "D8": 5160960, "G2xC2xA1": 192}


@pytest.fixture(scope="module")
def b2():
    return build_root_system("B2")


@pytest.fixture(scope="module")
def d4():
    return build_root_system("D4")


@pytest.mark.parametrize("spec,order", sorted(ORDERS.items()))
def test_weyl_order_closed_form(spec, order):
    assert weyl_order(build_root_system(spec)) == order


@pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3", "B2xA1"])
def test_enumeration_matches_closed_form(spec):
    rs = build_root_system(spec)
    elems = enumerate_weyl(rs)
    assert len(elems) == weyl_order(rs)
    # faithful: distinct images of the regular weight rho
    assert len({w.act_weight(rs, rs.rho) for w in elems}) == len(elems)


def test_lengths_via_poincare_b2(b2):
    lengths = sorted(w.length for w in enumerate_weyl(b2))
    assert lengths == [0, 1, 1, 2, 2, 3, 3, 4]


def test_words_are_reduced(b2):
    for w in enumerate_weyl(b2):
        rebuilt = element_from_word(b2, w.word)
        assert rebuilt.word == w.word
        assert rebuilt.length == w.length == len(w.word)


def test_sign_sum_vanishes():
    for spec in ("A2", "B2", "G2"):
        rs = build_root_system(spec)
        assert sum(w.sign for w in enumerate_weyl(rs)) == 0


def test_subgroup_orders(d4):
    assert subgroup_order(d4, set()) == 1
    assert subgroup_order(d4, {0}) == 2
    assert subgroup_order(d4, {0, 1, 2}) == 24


def test_coset_counts_d4(d4):
    reps = coset_representatives(d4, {0, 1, 2})
    assert len(reps) == 8
    assert reps[0].length == 0


@pytest.mark.parametrize("spec,theta,count", [
    ("A2", frozenset(), 6),
    ("A2", frozenset({1}), 3),
    ("B2", frozenset({1}), 4),
    ("B3", frozenset({1, 2}), 6),
    ("G2", frozenset({0}), 6),
])
def test_coset_cardinalities(spec, theta, count):
    rs = build_root_system(spec)
    assert len(coset_representatives(rs, theta)) == count


def test_coset_reps_distinct_orbits(b2):
    theta = frozenset({1})
    xi = tuple(0 if i in theta else 1 for i in range(b2.rank))
    keys = {w.act_weight(b2, xi)
            for w in coset_representatives(b2, theta)}
    assert len(keys) == 4


def _least_reduced_words(rs):
    """w rho -> the lexicographically least reduced word of w, by a
    depth-first search over all reduced words in lexicographic order."""
    least = {}

    def extend(word):
        w = element_from_word(rs, word)
        if w.length < len(word):
            return
        least.setdefault(w.act_weight(rs, rs.rho), word)
        for i in range(rs.rank):
            extend(word + (i,))

    extend(())
    return least


@pytest.mark.parametrize("spec", ["B2", "G2", "A3", "B3", "B2xA1"])
def test_coset_words_are_least_reduced_words(spec):
    # read left to right, each representative's word is the least of its
    # reduced words, and the representatives come length-first
    rs = build_root_system(spec)
    least = _least_reduced_words(rs)
    for size in range(rs.rank + 1):
        for theta in itertools.combinations(range(rs.rank), size):
            reps = coset_representatives(rs, theta)
            for w in reps:
                assert w.word == least[w.act_weight(rs, rs.rho)]
                assert w.length == len(w.word)
            lengths = [w.length for w in reps]
            assert lengths == sorted(lengths)


@pytest.mark.parametrize("spec,theta", [
    ("A3", {1}), ("B3", set()), ("G2", {0}), ("E6", {1, 2, 3, 4, 5}),
])
def test_cap_is_the_coset_count(spec, theta):
    rs = build_root_system(spec)
    xi = tuple(0 if i in theta else 1 for i in range(rs.rank))
    count = weyl_order(rs) // subgroup_order(rs, theta)
    pd = build_parabolic(rs, theta)
    assert height_fixed_point(pd, xi, cap=count).value == \
        height_substitution(pd, xi).value
    assert len(coset_representatives(rs, theta, cap=count)) == count
    with pytest.raises(GroupTooLarge):
        height_fixed_point(pd, xi, cap=count - 1)
    with pytest.raises(GroupTooLarge):
        coset_representatives(rs, theta, cap=count - 1)


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "G2", "D4", "B2xA1"])
def test_coset_orbit_counts_every_levi(spec):
    # |W_Theta| by Kostant's rule on the positive roots orthogonal to xi,
    # for every theta, the disconnected Levis among them ({1, 3} of A3 is
    # A1 x A1), and for coordinates of xi other than 1 off theta
    rs = build_root_system(spec)
    for size in range(rs.rank + 1):
        for theta in itertools.combinations(range(rs.rank), size):
            xi = tuple(0 if i in theta else i + 1 for i in range(rs.rank))
            points, _ = coset_orbit(rs, xi, DEFAULT_CAP)
            assert len(points) == weyl_order(rs) // subgroup_order(rs, theta)


def test_coset_orbit_rejects_non_dominant():
    # the coset orbit walk starts only from a dominant weight: (1, -1) is
    # rejected before the walk, so even a cap of one coset is not hit
    pd = build_parabolic(build_root_system("A2"), set())
    for method in (height_fixed_point, height_harmo_bott, height_all_methods):
        with pytest.raises(NotAmple):
            method(pd, (1, -1), cap=1)


def test_group_too_large():
    rs = build_root_system("E6")
    with pytest.raises(GroupTooLarge) as err:
        enumerate_weyl(rs, cap=100)
    assert "100" in str(err.value)


def test_longest_element(b2):
    w0 = longest_element(b2)
    assert w0.length == 4
    assert w0.act_weight(b2, b2.rho) == (-1, -1)


@pytest.mark.parametrize("spec,length", [("E7", 63), ("E8", 120)])
def test_longest_element_exceptional(spec, length):
    rs = build_root_system(spec)
    w0 = longest_element(rs)
    assert w0.length == length
    assert w0.act_weight(rs, rs.rho) == tuple(-r for r in rs.rho)


def test_short_w0_word_is_refused(monkeypatch):
    # a word one letter short of the reduction of -rho
    right = weyl.to_dominant_dotted

    def short(rs, lam):
        w, lam0 = right(rs, lam)
        return weyl.WeylElement(w.word[:-1], w.length - 1), lam0

    monkeypatch.setattr(weyl, "to_dominant_dotted", short)
    with pytest.raises(InvariantViolation, match="w0 of B2 has length 3"):
        longest_element(build_root_system("B2"))


@pytest.mark.parametrize("spec", ["G2", "B3", "B2xA1"])
def test_word_action_on_weights_matches_roots(spec):
    # replaying a word on the weight of a root gives the weight of the
    # replayed root, and the action preserves <beta^vee, mu>
    rs = build_root_system(spec)
    n = rs.rank
    mus = [rs.rho, tuple(2 - 3 * k for k in range(n)),
           tuple((-1) ** k * (k + 1) for k in range(n))]
    roots = [*rs.positive_roots, *map(negated, rs.positive_roots)]
    for w in enumerate_weyl(rs):
        for beta in roots:
            wbeta = w.act_root(rs, beta)
            assert root_to_weight(rs, wbeta.coords) == \
                w.act_weight(rs, root_to_weight(rs, beta.coords))
            for mu in mus:
                assert rs._pairing(w.act_weight(rs, mu), wbeta) == \
                    rs._pairing(mu, beta)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["B2", "G2"]), st.lists(st.integers(0, 1), max_size=12))
def test_word_length_matches_enumeration(spec, word):
    rs = build_root_system(spec)
    lengths = {w.act_weight(rs, rs.rho): w.length for w in enumerate_weyl(rs)}
    w = element_from_word(rs, word)
    assert w.length == lengths[w.act_weight(rs, rs.rho)]


word_st = st.lists(st.integers(0, 1), max_size=6)


@settings(max_examples=50, deadline=None)
@given(word_st, st.integers(-3, 3), st.integers(-3, 3))
def test_dotted_action_group_law(word, x, y):
    rs = build_root_system("B2")
    mu = (x, y)
    w = element_from_word(rs, word)
    # dotted action of w equals iterated dotted action of its letters
    acc = mu
    for i in reversed(word):
        acc = dotted_act(rs, element_from_word(rs, (i,)), acc)
    assert dotted_act(rs, w, mu) == acc


@settings(max_examples=50, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5))
def test_to_dominant_dotted_normal_form(x, y):
    rs = build_root_system("B2")
    lam = (x, y)
    res = to_dominant_dotted(rs, lam)
    shifted = tuple(l + r for l, r in zip(lam, rs.rho))
    if res is None:
        # singular: rho + lam fixed by some reflection
        assert any(rs._pairing(shifted, beta) == 0
                   for beta in rs.positive_roots)
    else:
        w, lam0 = res
        assert rs.is_dominant(lam0)
        assert dotted_act(rs, w, lam0) == lam
        # idempotence
        w2, again = to_dominant_dotted(rs, lam0)
        assert again == lam0 and w2.length == 0


@pytest.mark.parametrize("lam", [(1,), (1, 1, 5)])
def test_to_dominant_dotted_rejects_wrong_length(lam):
    # (1,) came back as its own normal form under the identity
    with pytest.raises(ValueError, match=f"has {len(lam)} coordinates"):
        to_dominant_dotted(build_root_system("A2"), lam)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["B2", "G2", "B3", "F4"]), st.data())
def test_dotted_reduction_word_is_reduced(spec, data):
    # to_dominant_dotted takes the length of its word without replaying it
    rs = build_root_system(spec)
    lam = data.draw(st.lists(st.integers(-9, 9), min_size=rs.rank,
                             max_size=rs.rank))
    res = to_dominant_dotted(rs, lam)
    assume(res is not None)
    w, _ = res
    assert w.length == len(w.word) == element_from_word(rs, w.word).length


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "G2", "D4", "F4",
                                  "B2xA1"])
def test_to_dominant_dotted_matches_rebuilding_oracle(spec):
    # the in-place walk gives the same words, degrees and lam0
    rs = build_root_system(spec)
    box = range(-4, 3) if rs.rank <= 3 else range(-3, 2)
    for lam in itertools.product(box, repeat=rs.rank):
        res = to_dominant_dotted(rs, lam)
        expected = to_dominant_dotted_by_reflection(rs, lam)
        if expected is None:
            assert res is None
        else:
            w, lam0 = res
            assert (w.word, lam0) == expected
            assert w.length == len(expected[0])


def test_longest_element_word_e8():
    rs = build_root_system("E8")
    w0 = longest_element(rs)
    word, lam0 = to_dominant_dotted_by_reflection(
        rs, tuple(-2 * r for r in rs.rho))
    assert w0.word == word and w0.length == 120
    assert lam0 == (0,) * 8


def test_identity(b2):
    e = element_from_word(b2, ())
    assert e.length == 0 and e.sign == 1
    assert e.act_weight(b2, (3, -2)) == (3, -2)


def _opposition(rs):
    """sigma with -w0(alpha_i) = alpha_sigma(i), read off the roots."""
    w0 = longest_element(rs)
    simple = [b for b in rs.positive_roots if b.height() == 1]
    return {b.coords.index(1): negated(w0.act_root(rs, b)).coords.index(1)
            for b in simple}


@pytest.mark.parametrize("spec,moved", [
    ("A2", True), ("A3", True), ("A4", True), ("A5", True), ("B3", False),
    ("C3", False), ("D4", False), ("D5", True), ("E6", True), ("F4", False),
    ("G2", False),
])
def test_w0_negates_is_opposition_symmetry(spec, moved):
    # w0 Y = -Y iff Y_sigma(i) = Y_i: at the default Y, at a sigma-symmetric
    # Y and at Y = (2, 3, ...), which is symmetric iff sigma is trivial
    rs = build_root_system(spec)
    sigma = _opposition(rs)
    assert (sigma != {i: i for i in range(rs.rank)}) == moved
    ys = [(1,) * rs.rank,
          tuple(3 * (i + sigma[i]) + 1 for i in range(rs.rank)),
          tuple(range(2, rs.rank + 2))]
    for y in ys:
        expected = all(y[sigma[i]] == y[i] for i in range(rs.rank))
        assert w0_negates(rs, y) == expected
    assert w0_negates(rs, ys[0]) and w0_negates(rs, ys[1])
    assert w0_negates(rs, ys[2]) != moved


def test_coset_count_check_names_theta_one_based(monkeypatch):
    # a walk one point short of the 3 cosets of A2 / W_Theta, theta {1},
    # which is node 2 on the CLI
    walk = weyl.orbit
    monkeypatch.setattr(weyl, "orbit", lambda rs, seeds: tuple(
        part[:-1] for part in walk(rs, seeds)))
    with pytest.raises(InvariantViolation,
                       match=r"found 2 cosets of W_Theta, theta=\[2\], not "
                             r"\|W\| / \|W_Theta\| = 3 for A2$"):
        coset_orbit(build_root_system("A2"), (1, 0), DEFAULT_CAP)
