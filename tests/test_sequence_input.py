"""Forest sequences must be 1-D and integer; nothing is truncated silently."""
import numpy as np
import pytest

from degree_lab.forests import decode_sequence, degrees_from_sequence


@pytest.mark.parametrize("seq", [
    (2.7, 1),
    (2.9, 1.5),
    (2.0, 1.0),
    np.array([2.5, 1.0]),
    ("2", "1"),
    ((2, 1),),
    np.array([[2, 1]]),
    np.int64(2),
])
def test_non_integer_or_non_flat_input_is_rejected(seq):
    with pytest.raises(ValueError, match="1-D sequence of integers"):
        decode_sequence(3, 1, seq)
    with pytest.raises(ValueError, match="1-D sequence of integers"):
        degrees_from_sequence(3, 1, seq)


@pytest.mark.parametrize("seq", [
    (2, 1), [2, 1], np.array([2, 1]), np.array([2, 1], dtype=np.uint8),
    (np.int32(2), 1),
])
def test_integer_input_is_accepted(seq):
    assert decode_sequence(3, 1, seq).edge_set() == {(1, 2), (2, 3)}
    assert degrees_from_sequence(3, 1, seq).tolist() == [1, 2, 1]


@pytest.mark.parametrize("seq", [(), [], np.array([]),
                                 np.array([], dtype=np.int64)])
def test_empty_input_is_accepted_for_the_all_roots_family(seq):
    assert decode_sequence(3, 3, seq).num_edges == 0
    assert degrees_from_sequence(3, 3, seq).tolist() == [0, 0, 0]
