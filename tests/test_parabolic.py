import pytest

from flagheight.parabolic import (
    NotAmple,
    build_parabolic,
    check_ample,
    psi_grading,
)
from flagheight.rootsys import build_root_system
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
    with pytest.raises(ValueError):
        build_parabolic(b2, {5})


def test_check_ample(b2):
    pd = build_parabolic(b2, {1})
    assert check_ample(pd, (1, 0))
    assert check_ample(pd, (3, 0))
    assert not check_ample(pd, (1, 1))  # nonzero on the Levi
    assert not check_ample(pd, (0, 0))
    assert not check_ample(pd, (-1, 0))


def test_grading_sizes_quadric(b2):
    pd = build_parabolic(b2, {1})
    grading = psi_grading(pd, (1, 0))
    assert {j: len(v) for j, v in grading.buckets.items()} == {1: 2, 2: 1}


def test_grading_full_flag_rho(b2):
    pd = build_parabolic(b2, set())
    grading = psi_grading(pd, (1, 1))
    # j = <alpha^vee, rho> = coroot height
    assert sum(len(v) for v in grading.buckets.values()) == 4
    assert set(grading.buckets) == {1, 2, 3}


def test_grading_rejects_non_ample(b2):
    # theta is named in the CLI's 1-based numbering: {1} is node 2
    pd = build_parabolic(b2, {1})
    with pytest.raises(NotAmple, match=r"does not vanish on theta=\[2\]$"):
        psi_grading(pd, (1, 1))
    with pytest.raises(NotAmple, match=r"not ample for theta=\[2\]: "):
        psi_grading(pd, (0, 0))


def test_psi_stable_under_levi_weyl():
    # each graded piece Psi_j is permuted by the reflections of the Levi
    rs = build_root_system("B3")
    pd = build_parabolic(rs, {1, 2})
    grading = psi_grading(pd, (1, 0, 0))
    for i in (1, 2):
        s = element_from_word(rs, (i,))
        for j, bucket in grading.buckets.items():
            images = {s.act_root(rs, alpha).coords for alpha in bucket}
            assert images == {alpha.coords for alpha in bucket}


def test_dim_of_full_flags():
    for spec, n in [("A3", 6), ("C3", 9), ("D4", 12), ("G2", 6)]:
        rs = build_root_system(spec)
        assert build_parabolic(rs, set()).dim == n
