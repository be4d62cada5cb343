import pytest

from nilorbits.verify import _RANK_BOUNDED, run_suite


@pytest.mark.parametrize("bound", [2, 5, 8, 12])
def test_rank_bounded_suites_ok_at_every_bound(bound):
    # the expected sides follow the bound: a sweep must not fail at a
    # bound the CLI accepts only because its expected set is fixed
    for name in sorted(_RANK_BOUNDED):
        rep = run_suite(name, max_rank=bound)
        assert rep.ok, f"{name} at --max-rank {bound}\n{rep.render()}"
