import pytest

from nilorbits import verify
from nilorbits.gradings import MixedGrading, decompose, grading_grid
from nilorbits.verify import SUITES, _RANK_BOUNDED, run_suite, swept_pairs


@pytest.mark.parametrize("bound", [2, 5, 8, 12])
def test_rank_bounded_suites_ok_at_every_bound(bound):
    # the expected sides follow the bound: a sweep must not fail at a
    # bound the CLI accepts only because its expected set is fixed
    for name in sorted(_RANK_BOUNDED):
        rep = run_suite(name, max_rank=bound)
        assert rep.ok, f"{name} at --max-rank {bound}\n{rep.render()}"


def test_regular_suite_sees_a_diagram_layer_above_the_grid(monkeypatch):
    # a grid that stops one layer short of the diagram: every layer the
    # grid has still matches, so only a comparison of the whole profiles
    # shows the missing top layer
    def cut_top(pd):
        mg = grading_grid(pd)
        return MixedGrading(mg.row0[:-1], mg.row1[:-1])

    monkeypatch.setattr(verify, "grading_grid", cut_top)
    rep = run_suite("regular", max_rank=6)
    layers = {c.case_id: c.passed for c in rep.cases
              if c.case_id.endswith(" g^h layers")}
    assert layers and not any(layers.values())
    for p in swept_pairs(6):
        pd = decompose(p)
        mg, wdd = cut_top(pd), pd.orbit.wdd
        assert all(mg.total(i) == wdd.layer_dim(i)
                   for i in range(len(mg.row0))), p
        assert mg.profile != wdd.profile, p


_CASE_COUNTS = {
    # cases per suite at --max-rank 1, 8 and 16; a change to the number of
    # a suite's cases edits this pin and says so.  At 1 no pair is swept,
    # so only fixed-bound cases remain and the sweeps have none
    1: {"balanced": 0, "collapsing": 0, "divisible": 35, "grids": 56,
        "kappa": 48, "meets": 0, "oracle": 317, "regular": 0,
        "tables": 44, "upsilon": 22},
    8: {"balanced": 75, "collapsing": 60, "divisible": 36, "grids": 56,
        "kappa": 48, "meets": 744, "oracle": 317, "regular": 702,
        "tables": 119, "upsilon": 161},
    16: {"balanced": 155, "collapsing": 124, "divisible": 36, "grids": 56,
         "kappa": 48, "meets": 2556, "oracle": 317, "regular": 2378,
         "tables": 215, "upsilon": 317},
}


@pytest.mark.parametrize("bound", sorted(_CASE_COUNTS))
def test_case_counts_are_pinned(bound):
    counts = {name: len(run_suite(name, max_rank=bound).cases)
              for name in SUITES}
    assert counts == _CASE_COUNTS[bound]
