from webqa.numeric import left_sum


def test_left_sum_rounds_after_every_addition():
    # 1e100 swallows each 1.0, so strict left-to-right addition ends at 0.0;
    # the compensated sum() of Python 3.12+ returns 2.0 here.
    assert left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum(x for x in ()) == 0.0
