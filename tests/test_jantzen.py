import contextlib
import io
import itertools
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from flagheight import charpoly, cli, jantzen
from flagheight.charpoly import formal_character, freudenthal
from flagheight.jantzen import (
    jantzen_rhs,
    jantzen_sizes,
    lambda0_component,
    prime_factorization,
    rhs_on_seeds,
)
from flagheight.parabolic import NotAmple, build_parabolic
from flagheight.rootsys import InvariantViolation, build_root_system
from flagheight.weyl import to_dominant_dotted
from oracles import (
    LogCharacterCombo,
    jantzen_rhs_per_weight,
    psi_signs,
    root_to_weight,
    verify_parabolic_independence,
    verify_w0_transform,
)


def test_prime_factorization():
    assert prime_factorization(1) == {}
    assert prime_factorization(12) == {2: 2, 3: 1}
    assert prime_factorization(97) == {97: 1}


def test_combo_cancellation():
    combo = LogCharacterCombo()
    combo.add_character(2, {(1,): 1})
    combo.add_character(2, {(1,): -1})
    assert not combo.terms


def test_combo_log_expansion():
    combo = LogCharacterCombo()
    combo.add_character(12, {(0,): 1})  # log 12 = 2 log 2 + log 3
    assert combo.terms == {2: {(0,): 2}, 3: {(0,): 1}}


def test_sl2_hand_value():
    # lam = 3 om on the full flag of A1: the only contribution is k = 3
    # with character chi_{om}, giving (om + (-om)) log 3
    rs = build_root_system("A1")
    pd = build_parabolic(rs, set())
    assert jantzen_rhs(pd, (3,)) == {3: {(1,): 1, (-1,): 1}}


def test_sl2_small_weights():
    rs = build_root_system("A1")
    pd = build_parabolic(rs, set())
    # k runs to <a^vee, rho+lam> - 1 = lam + 1; k = 1 contributes no log
    assert not jantzen_rhs(pd, (0,))
    assert not jantzen_rhs(pd, (1,))  # k=2 term is singular


def test_lambda0_component_vanishes():
    for spec, lam in [("A1", (3,)), ("A2", (1, 1)), ("B2", (2, 1)),
                      ("G2", (1, 1))]:
        rs = build_root_system(spec)
        pd = build_parabolic(rs, set())
        rhs = jantzen_rhs(pd, lam)
        assert lambda0_component(rhs, pd, lam) == {}


@pytest.mark.parametrize("lam", [
    (-1, 3),  # no term survives
    (-4, 2),  # terms survive
])
def test_rhs_refuses_singular_weight(lam):
    pd = build_parabolic(build_root_system("A2"), set())
    message = (rf"^rho \+ \({lam[0]}, {lam[1]}\) is singular; "
               r"lambda0 undefined$")
    with pytest.raises(ValueError, match=message):
        jantzen_rhs(pd, lam)


def test_lambda0_component_rejects_singular():
    rs = build_root_system("A2")
    pd = build_parabolic(rs, set())
    with pytest.raises(ValueError):
        lambda0_component({}, pd, (-1, 0))


@pytest.mark.parametrize("spec,lam,theta", [
    ("A2", (1, 0), {1}),
    ("A2", (2, 0), {1}),
    ("B2", (1, 0), {1}),
    ("B2", (0, 1), {0}),
    ("A3", (0, 1, 0), {0, 2}),
])
def test_parabolic_independence(spec, lam, theta):
    rs = build_root_system(spec)
    assert verify_parabolic_independence(rs, lam, theta)


def test_parabolic_independence_requires_vanishing():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        verify_parabolic_independence(rs, (1, 1), {1})


@pytest.mark.parametrize("spec", ["A1", "A2", "B2"])
def test_w0_reindexing(spec):
    rs = build_root_system(spec)
    for lam in itertools.product(range(3), repeat=rs.rank):
        assert verify_w0_transform(rs, lam)


def test_rhs_nontrivial_b2():
    rs = build_root_system("B2")
    pd = build_parabolic(rs, set())
    rhs = jantzen_rhs(pd, (1, 1))
    assert rhs
    # all coefficients are integers attached to genuine primes
    for p, bucket in rhs.items():
        assert prime_factorization(p) == {p: 1}
        assert all(isinstance(c, int) and c for c in bucket.values())


def _jantzen_rhs_termwise(pd, lam):
    """The term-by-term sum jantzen_rhs used to compute, as an oracle: one
    formal character per (alpha, k)."""
    rs = pd.rs
    nu = tuple(l + r for l, r in zip(lam, rs.rho))
    combo = LogCharacterCombo()
    plus, minus = psi_signs(pd, lam)
    for alpha in plus:
        fw = root_to_weight(rs, alpha.coords)
        top = rs._pairing(nu, alpha)
        for k in range(1, top):
            arg = tuple(n - k * f for n, f in zip(nu, fw))
            combo.add_character(k, formal_character(rs, arg), scale=-1)
    for alpha in minus:
        fw = root_to_weight(rs, alpha.coords)
        top = -rs._pairing(nu, alpha)
        for k in range(1, top):
            arg = tuple(n + k * f for n, f in zip(nu, fw))
            combo.add_character(k, formal_character(rs, arg), scale=+1)
    return combo


@pytest.mark.parametrize("spec,box", [
    ("A2", 4), ("B2", 4), ("G2", 3), ("A3", 2), ("B3", 1), ("B2xA1", 2)])
def test_rhs_matches_termwise_sum(spec, box):
    rs = build_root_system(spec)
    for lam in itertools.product(range(-2, box + 1), repeat=rs.rank):
        zeros = [i for i, l in enumerate(lam) if l == 0]
        # the Borel, one zero of lam, and all of them
        for theta in {(), tuple(zeros[:1]), tuple(zeros)}:
            pd = build_parabolic(rs, set(theta))
            if to_dominant_dotted(rs, lam) is None:
                with pytest.raises(ValueError, match="is singular"):
                    jantzen_rhs(pd, lam)
            else:
                assert jantzen_rhs(pd, lam) == \
                    _jantzen_rhs_termwise(pd, lam).terms


@pytest.mark.parametrize("spec,lam,runs", [
    # the term-by-term sum runs Freudenthal 20 times for these 10 weights
    ("D4", (1, 1, 1, 1), 10),
    # the terms reach 11 weights, and the coefficients of one cancel
    ("G2", (1, 3), 10),
])
def test_rhs_runs_freudenthal_once_per_weight(monkeypatch, spec, lam, runs):
    # one orbit walk per call, and one dominant recursion per lam0 with a
    # nonzero coefficient, over that walk's points
    walks, calls = [], []
    walk, recursion = charpoly.orbit, jantzen.dominant_multiplicities

    def counted_walk(rs, seeds):
        walks.append(seeds)
        return walk(rs, seeds)

    def counted(core, lam0):
        calls.append(lam0)
        return recursion(core, lam0)

    pd = build_parabolic(build_root_system(spec), set())
    expected = _jantzen_rhs_termwise(pd, lam).terms
    monkeypatch.setattr(charpoly, "orbit", counted_walk)
    monkeypatch.setattr(jantzen, "dominant_multiplicities", counted)
    assert jantzen_rhs(pd, lam) == expected
    assert len(walks) == 1
    assert len(calls) == len(set(calls)) == runs


def test_rhs_rejects_wrong_length_weight():
    # jantzen_sizes took (1, 1, 5) on A2 for (1, 1), whose sizes it returned
    for spec, lam in (("A3", (1, 1)), ("A2", (1, 1, 5))):
        pd = build_parabolic(build_root_system(spec), set())
        for f in (jantzen_rhs, jantzen_sizes):
            with pytest.raises(ValueError, match=f"rank is {pd.rs.rank}$"):
                f(pd, lam)


def test_rhs_and_sizes_require_lambda_vanishing_on_theta():
    # over P_{1} of B2, lambda (2, 1) would give a sum other than the Borel
    # sum; check_vanishes refuses it with NotAmple, naming theta 1-based,
    # in the words height uses for the same weight
    pd = build_parabolic(build_root_system("B2"), {0})
    message = r"^weight \(2, 1\) does not vanish on theta=\[1\]$"
    for f in (jantzen_rhs, jantzen_sizes):
        with pytest.raises(NotAmple, match=message):
            f(pd, (2, 1))
    assert jantzen_sizes(pd, (0, 1)) == (3, 4)
    assert jantzen_rhs(pd, (0, 3)) == jantzen_rhs(
        build_parabolic(pd.rs, set()), (0, 3))


@pytest.mark.parametrize("spec,p", [
    ("A2", 2), ("A2", 3), ("A3", 2), ("A3", 3), ("B2", 2), ("B2", 3),
    ("G2", 2), ("G2", 3), ("B3", 2), ("C3", 2), ("D4", 2), ("B2", 5),
    ("F4", 3)])
def test_steinberg_weight_has_no_p_bucket(spec, p):
    # at lam = (p-1) rho, L(lam) is the Steinberg module, simple over F_p:
    # every layer V^i, i >= 1, of the Jantzen filtration is zero, and so is
    # the p-part of the sum; other primes still appear
    rs = build_root_system(spec)
    lam = tuple((p - 1) * r for r in rs.rho)
    rhs = jantzen_rhs(build_parabolic(rs, set()), lam)
    assert p not in rhs and rhs


@st.composite
def _instances(draw, low=0):
    """A small type, a lambda with entries from low up, and a theta on which
    it vanishes; low=0 gives a dominant lambda."""
    spec = draw(st.sampled_from(["A1", "A2", "B2", "G2", "A3", "B3", "C3",
                                 "A1xA1"]))
    rs = build_root_system(spec)
    top = 2 if rs.rank == 3 else 4
    lam = tuple(draw(st.lists(st.integers(low, top), min_size=rs.rank,
                              max_size=rs.rank)))
    zeros = [i for i, l in enumerate(lam) if l == 0]
    theta = draw(st.sets(st.sampled_from(zeros))) if zeros else set()
    return build_parabolic(rs, theta), lam


@settings(max_examples=60, deadline=None)
@given(_instances())
def test_rhs_of_a_dominant_weight_is_weightwise_positive(instance):
    # sum_p log p sum_{i>0} ch V^i_p is a sum of true characters
    pd, lam = instance
    for bucket in jantzen_rhs(pd, lam).values():
        assert bucket and all(c > 0 for c in bucket.values())


@settings(max_examples=60, deadline=None)
@given(st.one_of(_instances(), _instances(low=-3)))
def test_rhs_matches_per_weight_oracle(instance):
    # summed on dominant weights and expanded once per prime, against every
    # lam0's full table added into every bucket; a singular rho + lam is
    # refused
    pd, lam = instance
    if to_dominant_dotted(pd.rs, lam) is None:
        with pytest.raises(ValueError, match="is singular"):
            jantzen_rhs(pd, lam)
    else:
        assert jantzen_rhs(pd, lam) == jantzen_rhs_per_weight(pd, lam)


def _cli_doc(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


def _records(table: dict, name: str, reverse: bool = False) -> list:
    return [{"weight": list(mu), name: c}
            for mu, c in sorted(table.items(), reverse=reverse)]


@settings(max_examples=60, deadline=None)
@given(st.one_of(_instances(), _instances(low=-3)))
# G2 at (2, 2): five primes, so five tables from one sorted weight list
@example((build_parabolic(build_root_system("G2"), set()), (2, 2)))
def test_cli_tables_are_the_library_tables(instance):
    # each table the CLI prints from one sorted list of the core's weights
    # is the sorted records of the library's dict; for a dominant lambda,
    # so is char's table of freudenthal
    pd, lam = instance
    if to_dominant_dotted(pd.rs, lam) is None:
        return
    group = str(pd.rs.spec)
    weight = "--lambda=" + ",".join(map(str, lam))
    theta = ",".join(str(i + 1) for i in sorted(pd.theta))
    doc = _cli_doc("jantzen-rhs", "--group", group, "--theta", theta, weight)
    rhs = jantzen_rhs(pd, lam)
    assert doc["primes"] == {str(p): _records(rhs[p], "coeff")
                             for p in sorted(rhs)}
    at_lambda0 = lambda0_component(rhs, pd, lam)
    assert rhs_on_seeds(pd, lam)[2] == at_lambda0
    assert doc["lambda0_component_zero"] is (not at_lambda0)
    if pd.rs.is_dominant(lam):
        doc = _cli_doc("char", "--group", group, weight)
        assert doc["weights"] == _records(freudenthal(pd.rs, lam), "mult",
                                          reverse=True)


def test_rhs_matches_per_weight_oracle_on_f4():
    pd = build_parabolic(build_root_system("F4"), set())
    rhs = jantzen_rhs(pd, (1, 1, 1, 1))
    assert rhs == jantzen_rhs_per_weight(pd, (1, 1, 1, 1))
    assert sum(map(len, rhs.values())) == 78943


def test_rhs_refuses_a_term_above_the_normal_form(monkeypatch):
    # every term's lam0 lies below the normal form of lambda; a closure
    # built at a lower weight is missing some of them
    pd = build_parabolic(build_root_system("B2"), set())
    monkeypatch.setattr(jantzen, "_lambda0", lambda rs, lam: (0, 0))
    with pytest.raises(InvariantViolation, match=r"^\(\d+, \d+\) is not a "
                       r"dominant weight below \(0, 0\)$"):
        jantzen_rhs(pd, (3, 2))
