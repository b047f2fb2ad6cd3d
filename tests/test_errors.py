import numpy as np
import pytest

from dhjac.errors import SingularConfiguration, SingularLimb, Status, Unreachable


def test_refusal_after_reading_ok_shows_in_next_read():
    status = Status(3)
    assert status.ok.tolist() == [True, True, True]
    status.refuse(np.array([False, True, False]), Unreachable, lambda i: "out")
    assert status.ok.tolist() == [True, False, True]
    status.refuse_first(np.array([[False, False], [False, False], [False, True]]),
                        SingularLimb, lambda i, k: f"limb {k + 1}", np.zeros((3, 2)))
    assert status.ok.tolist() == [True, False, False]
    assert status.codes() == ["ok", "unreachable", "singular_limb"]
    # refusals are keyed by row, and ``error`` takes a row
    assert sorted(status.refusals) == [1, 2]
    assert status.error(0) is None
    assert isinstance(status.error(1), Unreachable) and str(status.error(2)) == "limb 2"


def test_clean_mask_cannot_be_written_through():
    # a stack with no refusal may share its mask; writing to it must fail
    # rather than refuse a pose of another Status
    first, second = Status(4), Status(4)
    with pytest.raises(ValueError):
        first.ok[1] = False
    assert second.ok.all() and first.ok.all()
    refused = Status(4)
    refused.refuse(np.array([True, False, False, False]), Unreachable, lambda i: "out")
    with pytest.raises(ValueError):
        refused.ok[0] = True
    # a Status is a stack: a lone pose is a stack of one, with a mask of shape (1,)
    assert Status(1).ok.shape == (1,) and refused.ok.shape == (4,)


def test_clean_masks_refuse_nothing():
    status = Status(2)
    status.refuse(np.zeros(2, bool), Unreachable, lambda i: "out")
    status.refuse_first(np.zeros((2, 4), bool), SingularLimb, lambda i, k: "limb",
                        np.zeros((2, 4)))
    assert status.refusals == {}
    status.check()


def test_then_keeps_the_first_refusal_in_stage_order():
    stages = [Status(3) for _ in range(3)]
    stages[0].refuse(np.array([True, False, False]), Unreachable, lambda i: "first")
    stages[1].refuse(np.array([True, True, False]), SingularConfiguration, lambda i: "second")
    stages[2].refuse(np.array([False, True, True]), SingularLimb, lambda i: "third")
    status = stages[0].then(stages[1], stages[2])
    assert status.codes() == ["unreachable", "singular_configuration", "singular_limb"]
    assert status.codes() == stages[0].then(stages[1]).then(stages[2]).codes()
    assert stages[0].codes() == ["unreachable", "ok", "ok"]  # the stages are left as they were
    with pytest.raises(Unreachable, match="first"):
        status.check()
