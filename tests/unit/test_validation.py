"""Unit tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    ValidationError,
    check_array_shape,
    check_in_range,
    check_node_id,
    check_nonnegative,
    check_positive,
    check_probability,
    check_simplex,
    check_type,
    check_unique,
)


class TestCheckType:
    def test_accepts_matching_type(self):
        assert check_type(5, int, "x") == 5

    def test_accepts_tuple_of_types(self):
        assert check_type(1.5, (int, float), "x") == 1.5

    def test_rejects_wrong_type(self):
        with pytest.raises(ValidationError, match="x must be"):
            check_type("5", int, "x")

    def test_rejects_bool_where_number_expected(self):
        with pytest.raises(ValidationError, match="boolean"):
            check_type(True, int, "flag")

    def test_error_message_names_argument(self):
        with pytest.raises(ValidationError, match="my_arg"):
            check_type(None, int, "my_arg")


class TestNumericChecks:
    def test_positive_accepts_positive(self):
        assert check_positive(3, "k") == 3
        assert check_positive(0.1, "p") == 0.1

    def test_positive_rejects_zero_and_negative(self):
        with pytest.raises(ValidationError):
            check_positive(0, "k")
        with pytest.raises(ValidationError):
            check_positive(-1, "k")

    def test_nonnegative_accepts_zero(self):
        assert check_nonnegative(0, "n") == 0

    def test_nonnegative_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_nonnegative(-0.001, "n")

    def test_in_range_inclusive(self):
        assert check_in_range(0.0, 0.0, 1.0, "p") == 0.0
        assert check_in_range(1.0, 0.0, 1.0, "p") == 1.0

    def test_in_range_exclusive(self):
        with pytest.raises(ValidationError):
            check_in_range(0.0, 0.0, 1.0, "p", inclusive=False)

    def test_in_range_rejects_outside(self):
        with pytest.raises(ValidationError):
            check_in_range(1.5, 0.0, 1.0, "p")

    def test_probability_bounds(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValidationError):
            check_probability(1.01, "p")


class TestCheckSimplex:
    def test_accepts_valid_distribution(self):
        gamma = check_simplex([0.2, 0.3, 0.5], "gamma")
        assert gamma.dtype == np.float64

    def test_rejects_unnormalised(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            check_simplex([0.2, 0.2], "gamma")

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError, match="non-negative"):
            check_simplex([1.5, -0.5], "gamma")

    def test_rejects_matrix(self):
        for matrix in (np.eye(2), [[0.5, 0.5]], np.zeros((0, 3))):
            with pytest.raises(ValidationError, match="1-d"):
                check_simplex(matrix, "gamma")

    def test_rejects_empty(self):
        for empty in (np.array([]), []):
            with pytest.raises(ValidationError, match="non-empty"):
                check_simplex(empty, "gamma")

    @staticmethod
    def _accepts(vector, atol):
        try:
            check_simplex(vector, "gamma", atol=atol)
        except ValidationError:
            return False
        return True

    # 2**-10 - 1e-5 makes the bound atol + 1e-5 exactly 2**-10, so the
    # edge totals 1 ± 2**-10 sit exactly on it (a strict < would fail).
    @pytest.mark.parametrize("atol", [1e-6, 0.0, 1e-3, 2.0**-10 - 1e-05])
    def test_sum_tolerance_matches_isclose_at_the_boundary(self, atol):
        """The sum test is np.isclose(total, 1.0, atol=atol) exactly: at
        ``1 ± (atol + 1e-5)`` and one float either side of each edge."""
        verdicts = {}
        for sign in (1.0, -1.0):
            edge = 1.0 + sign * (atol + 1e-05)
            for total in (
                np.nextafter(edge, -np.inf),
                edge,
                np.nextafter(edge, np.inf),
            ):
                # Split the total over two entries too: the sum is what counts.
                for vector in ([total], [total / 2.0, total - total / 2.0]):
                    total_seen = float(np.asarray(vector).sum())
                    expected = bool(np.isclose(total_seen, 1.0, atol=atol))
                    assert self._accepts(vector, atol) is expected, vector
                    verdicts.setdefault(sign, set()).add(expected)
        # Each edge really separates: both verdicts occur on both sides.
        assert verdicts == {1.0: {True, False}, -1.0: {True, False}}

    @pytest.mark.parametrize(
        "vector",
        [[np.nan], [np.nan, 0.5], [np.inf], [0.5, np.inf], [np.inf, -np.inf]],
    )
    def test_rejects_non_finite_sums(self, vector):
        with pytest.raises(ValidationError):
            check_simplex(vector, "gamma")


class TestCheckNodeId:
    def test_accepts_valid_node(self):
        assert check_node_id(3, 10) == 3

    def test_accepts_numpy_integer(self):
        assert check_node_id(np.int64(2), 5) == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            check_node_id(10, 10)
        with pytest.raises(ValidationError):
            check_node_id(-1, 10)


class TestCheckArrayShape:
    def test_accepts_matching_shape(self):
        array = check_array_shape(np.zeros((3, 4)), (3, 4), "m")
        assert array.shape == (3, 4)

    def test_wildcard_axis(self):
        check_array_shape(np.zeros((3, 7)), (3, None), "m")

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValidationError, match="dimensions"):
            check_array_shape(np.zeros(3), (3, 1), "m")

    def test_rejects_wrong_size(self):
        with pytest.raises(ValidationError, match="axis 1"):
            check_array_shape(np.zeros((3, 4)), (3, 5), "m")


class TestCheckUnique:
    def test_accepts_unique(self):
        check_unique([1, 2, 3], "seeds")

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError, match="duplicate"):
            check_unique([1, 2, 1], "seeds")
