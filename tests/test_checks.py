"""The one gate every check goes through, and the slice maxima it reads."""

import numpy as np
import pytest

from cilab.checks import fold_maxima, gate


class Failed(RuntimeError):
    pass


class TestFoldMaxima:
    def test_running_maxima_in_slice_order(self):
        got = fold_maxima({"a": 0.0, "b": 1.0},
                          [[("a", 2.0)], [("a", 1.0), ("b", 3.0)], []])
        assert got == {"a": 2.0, "b": 3.0}

    @pytest.mark.parametrize("values", [(1.0, np.nan, 2.0), (np.nan, 2.0),
                                        (2.0, np.nan)])
    def test_nan_sticks(self, values):
        got = fold_maxima({"a": 0.0}, [[("a", v)] for v in values])
        assert np.isnan(got["a"])


class TestGate:
    GATES = [("a", "first residual", 1.0), ("b", "second residual", 1.0),
             ("c", "third residual", 1.0)]

    def test_passing_report_is_returned_with_its_tolerances(self):
        report = {"a": 0.5, "b": 1.0, "c": 0.0, "norm": 7.0}
        assert gate(report, self.GATES, Failed) is report
        assert report == {"a": 0.5, "b": 1.0, "c": 0.0, "norm": 7.0,
                          "a_tolerance": 1.0, "b_tolerance": 1.0,
                          "c_tolerance": 1.0}

    def test_nan_residual_fails(self):
        with pytest.raises(Failed, match="^second residual nan exceeds 1$"):
            gate({"a": 0.0, "b": np.nan, "c": 0.0}, self.GATES, Failed)

    def test_nan_tolerance_fails(self):
        with pytest.raises(Failed, match="^a 0 exceeds nan$"):
            gate({"a": 0.0}, [("a", "a", np.nan)], Failed)

    def test_every_failure_named_in_gate_order(self):
        report = {"a": 2.0, "b": 0.5, "c": np.inf}
        with pytest.raises(Failed) as err:
            gate(report, self.GATES, Failed)
        assert str(err.value) == ("first residual 2 exceeds 1; "
                                  "third residual inf exceeds 1")
        assert err.value.failures == (("a", 2.0), ("c", np.inf))
        # the tolerances are recorded before the raise
        assert report["b_tolerance"] == 1.0

    def test_error_carries_the_report_it_gated(self):
        # the report it was given, with this gate's tolerances: a key the
        # gate does not name gets none
        report = {"a": 0.5, "b": 2.0, "c": 0.0, "later": 9.0}
        with pytest.raises(Failed) as err:
            gate(report, self.GATES, Failed)
        assert err.value.report is report
        assert report == {"a": 0.5, "b": 2.0, "c": 0.0, "later": 9.0,
                          "a_tolerance": 1.0, "b_tolerance": 1.0,
                          "c_tolerance": 1.0}
        assert "later_tolerance" not in err.value.report

    def test_error_type_is_the_callers(self):
        with pytest.raises(ValueError) as err:
            gate({"a": 3.0}, [("a", "a", 1.0)], ValueError)
        assert err.value.failures == (("a", 3.0),)
