import pytest

from flagheight.parabolic import (
    NotAmple,
    build_parabolic,
    check_ample,
    check_vanishes,
    psi_grading,
)
from flagheight.rootsys import build_root_system
from flagheight.weyl import coset_representatives
from oracles import element_from_word


@pytest.fixture(scope="module")
def b2():
    return build_root_system("B2")


def test_borel_has_empty_levi(b2):
    pd = build_parabolic(b2, set())
    assert pd.psi == b2.positive_roots
    assert pd.dim == b2.num_positive_roots


def test_quadric_split(b2):
    # Levi keeps alpha_2; Psi is the three roots containing alpha_1
    pd = build_parabolic(b2, {1})
    assert [b.coords for b in b2.positive_roots if b not in pd.psi] == \
        [(0, 1)]
    assert pd.dim == 3
    for alpha in pd.psi:
        assert alpha.coords[0] > 0


def test_theta_out_of_range(b2):
    # one check, RootSystem.check_theta, names the index 1-based, as the
    # CLI numbers the simple roots
    for f in (build_parabolic, coset_representatives):
        with pytest.raises(ValueError,
                           match=r"^theta index 6 out of range 1\.\.2$"):
            f(b2, {5})


# theta = {1} is node 2; the first root of Psi is (1, 0)
NOT_AMPLE = [
    ((1, 1), "weight (1, 1) does not vanish on theta=[2]"),
    ((0, 0), "weight (0, 0) is not ample for theta=[2]: violating root "
             "(1, 0)"),
    ((-1, 0), "weight (-1, 0) is not ample for theta=[2]: violating root "
              "(1, 0)"),
]


def test_check_ample(b2):
    # the weight as a tuple, or NotAmple naming theta 1-based and the first
    # root of Psi that fails; a weight of the wrong length fails first
    pd = build_parabolic(b2, {1})
    assert check_ample(pd, [1, 0]) == (1, 0)
    assert check_ample(pd, (3, 0)) == (3, 0)
    for lam, message in NOT_AMPLE:
        with pytest.raises(NotAmple) as exc:
            check_ample(pd, lam)
        assert str(exc.value) == message
    with pytest.raises(ValueError, match=r"^weight \(1,\) has 1 coordinates"):
        check_ample(pd, (1,))
    # the vanishing half alone takes a weight that is not ample
    assert check_vanishes(pd, [-1, 0]) == (-1, 0)


def test_grading_sizes_quadric(b2):
    pd = build_parabolic(b2, {1})
    grading = psi_grading(pd, (1, 0))
    assert {j: len(v) for j, v in grading.items()} == {1: 2, 2: 1}


def test_grading_full_flag_rho(b2):
    pd = build_parabolic(b2, set())
    grading = psi_grading(pd, (1, 1))
    # j = <alpha^vee, rho> = coroot height
    assert sum(len(v) for v in grading.values()) == 4
    assert set(grading) == {1, 2, 3}


def test_grading_rejects_non_ample(b2):
    # psi_grading refuses through check_ample, with its message
    pd = build_parabolic(b2, {1})
    for lam, message in NOT_AMPLE:
        with pytest.raises(NotAmple) as exc:
            psi_grading(pd, lam)
        assert str(exc.value) == message


def test_psi_stable_under_levi_weyl():
    # each graded piece Psi_j is permuted by the reflections of the Levi
    rs = build_root_system("B3")
    pd = build_parabolic(rs, {1, 2})
    grading = psi_grading(pd, (1, 0, 0))
    for i in (1, 2):
        s = element_from_word(rs, (i,))
        for j, bucket in grading.items():
            images = {s.act_root(rs, alpha).coords for alpha in bucket}
            assert images == {alpha.coords for alpha in bucket}


def test_dim_of_full_flags():
    for spec, n in [("A3", 6), ("C3", 9), ("D4", 12), ("G2", 6)]:
        rs = build_root_system(spec)
        assert build_parabolic(rs, set()).dim == n
