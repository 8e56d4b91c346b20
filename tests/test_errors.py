import pytest

from spdhgr.errors import InvalidInput, named


def test_named_without_a_non_empty_part_reraises_the_error_unchanged():
    error = InvalidInput("bad frame")
    with pytest.raises(InvalidInput) as info:
        with named(None, ""):
            raise error
    assert info.value is error
    assert str(info.value) == "bad frame"
