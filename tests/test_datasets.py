"""Benchmark functions, their exact grids, and lossless CSV round trips."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pairnet.datasets import (
    CsvFormatError,
    Dataset,
    benchmark_eval,
    gen_test,
    gen_train,
    read_csv,
    write_csv,
)
from pairnet.partition import Interval
from reference_csv import line_read_csv


class TestBenchmarkFunctions:
    def test_point_anchors(self):
        # Hand-checkable corners: f2 and f3 collapse at (1,1,1).
        assert benchmark_eval("f2", 1, 1, 1) == 2.0          # sin(0) kills the first term
        assert benchmark_eval("f3", 1, 1, 1) == 16.0         # (1+1+1+1)^2
        assert benchmark_eval("f1", 1, 20, 20) == pytest.approx(4.248464393538745, rel=1e-12)
        assert benchmark_eval("f1", 20, 1, 1) == pytest.approx(55.83281572999748, rel=1e-12)

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            benchmark_eval("f4", 1, 1, 1)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            benchmark_eval("f1", 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            benchmark_eval("f3", 1.0, -2.0, 1.0)

    def test_vectorized_matches_scalar(self, rng):
        x, y, z = rng.uniform(1, 20, size=(3, 50))
        for tag in ("f1", "f2", "f3"):
            vec = benchmark_eval(tag, x, y, z)
            sca = [benchmark_eval(tag, *p) for p in zip(x, y, z)]
            np.testing.assert_array_equal(vec, sca)


class TestTrainGrid:
    def test_row_counts(self):
        assert len(gen_train("f1")) == 8000
        assert len(gen_test("f1")) == 6859

    def test_enumeration_formula_corners(self):
        ds = gen_train("f2")
        np.testing.assert_array_equal(ds.X[0], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(ds.X[7999], [20.0, 20.0, 20.0])
        np.testing.assert_array_equal(ds.X[19], [1.0, 1.0, 20.0])
        np.testing.assert_array_equal(ds.X[20], [1.0, 2.0, 1.0])
        np.testing.assert_array_equal(ds.X[400], [2.0, 1.0, 1.0])

    def test_grid_is_the_integer_lattice(self):
        ds = gen_train("f1")
        vals = np.unique(ds.X)
        np.testing.assert_array_equal(vals, np.arange(1.0, 21.0))
        # every (x, y, z) combination appears exactly once
        assert len(np.unique(ds.X, axis=0)) == 8000

    def test_target_ranges(self):
        expected = {
            "f1": (4.248, 55.833),
            "f2": (2.0, 66.023),
            "f3": (16.0, 1969.527),
        }
        for tag, (lo, hi) in expected.items():
            y = gen_train(tag).y
            assert y.min() == pytest.approx(lo, abs=1e-2)
            tol = 1e-1 if tag == "f3" else 1e-2
            assert y.max() == pytest.approx(hi, abs=tol)

    def test_targets_match_function(self):
        ds = gen_train("f3")
        np.testing.assert_array_equal(
            ds.y, benchmark_eval("f3", ds.X[:, 0], ds.X[:, 1], ds.X[:, 2])
        )


class TestTestGrid:
    def test_half_integer_lattice(self):
        ds = gen_test("f1")
        np.testing.assert_array_equal(ds.X[0], [1.5, 1.5, 1.5])
        np.testing.assert_array_equal(ds.X[6858], [19.5, 19.5, 19.5])
        vals = np.unique(ds.X)
        np.testing.assert_array_equal(vals, np.arange(1.5, 20.0))
        assert len(np.unique(ds.X, axis=0)) == 6859

    def test_interior_to_train_domain(self):
        ds = gen_test("f2")
        for d, iv in enumerate(ds.domain):
            assert ds.X[:, d].min() > iv.lo
            assert ds.X[:, d].max() < iv.hi


class TestDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            Dataset(np.zeros(3), np.zeros(3), (Interval(0, 1),))
        with pytest.raises(ValueError, match="does not match"):
            Dataset(np.zeros((3, 1)), np.zeros(2), (Interval(0, 1),))
        with pytest.raises(ValueError, match="domain"):
            Dataset(np.zeros((3, 2)), np.zeros(3), (Interval(0, 1),))

    def test_nan_target_names_the_row(self):
        y = np.array([1.0, 2.0, np.nan, np.nan])
        with pytest.raises(ValueError, match=r"row 2 .*y=nan"):
            Dataset(np.zeros((4, 1)), y, (Interval(0, 1),))

    def test_infinite_input_names_the_row(self):
        X = np.zeros((3, 2))
        X[1, 1] = -np.inf
        with pytest.raises(ValueError, match=r"row 1 .*-inf"):
            Dataset(X, np.zeros(3), (Interval(0, 1), Interval(0, 1)))


class TestCsvRoundTrip:
    def test_exact_roundtrip(self, tmp_path, rng):
        X = rng.uniform(-5, 5, size=(37, 3))
        y = rng.normal(size=37)
        ds = Dataset(X, y, tuple(Interval(-5.0, 5.0) for _ in range(3)))
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        back = read_csv(path, domain=ds.domain)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.domain == ds.domain

    def test_header_format(self, tmp_path):
        ds = gen_train("f1")
        path = tmp_path / "train.csv"
        write_csv(ds, path)
        with open(path) as fh:
            assert fh.readline().strip() == "x1,x2,x3,y"

    def test_domain_inferred_from_columns(self, tmp_path):
        X = np.array([[1.0, -2.0], [4.0, 6.0], [2.0, 0.0]])
        path = tmp_path / "d.csv"
        write_csv(Dataset(X, np.zeros(3), (Interval(0, 5), Interval(-3, 7))), path)
        back = read_csv(path)
        assert back.domain == (Interval(1.0, 4.0), Interval(-2.0, 6.0))

    def test_degenerate_column_padded(self, tmp_path):
        X = np.full((4, 1), 2.0)
        path = tmp_path / "d.csv"
        write_csv(Dataset(X, np.zeros(4), (Interval(0, 5),)), path)
        assert read_csv(path).domain == (Interval(1.5, 2.5),)

    def test_degenerate_huge_column_padded_by_a_float_step(self, tmp_path):
        """At 2^52 and above, value +/- 0.5 rounds back to the value; the
        domain then steps to the neighbouring floats."""
        value = 4503599627370498.0
        path = tmp_path / "d.csv"
        path.write_text(f"x1,y\n{value!r},0.0\n")
        (iv,) = read_csv(path).domain
        assert iv.lo < value < iv.hi
        assert (iv.lo, iv.hi) == (np.nextafter(value, -np.inf), np.nextafter(value, np.inf))

    @pytest.mark.parametrize("value", [1.7976931348623157e308, -1.7976931348623157e308])
    def test_degenerate_column_at_largest_float_refused(self, tmp_path, value):
        path = tmp_path / "d.csv"
        path.write_text(f"x1,x2,y\n0.0,{value!r},0.0\n1.0,{value!r},0.0\n")
        with pytest.raises(CsvFormatError, match="column x2: every value is"):
            read_csv(path)

    @pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (-1.7976931348623157e308, 1e300)])
    def test_column_whose_width_overflows_refused(self, tmp_path, lo, hi):
        """Both ends are finite but max - min is not: the domain is refused
        as a CsvFormatError naming the column, not as a NaN breakpoint
        when the data is later partitioned."""
        path = tmp_path / "d.csv"
        path.write_text(f"x1,x2,y\n0.0,{lo!r},0.0\n1.0,{hi!r},0.0\n")
        want = f"column x2: interval ends and width must be finite: [{lo!r}, {hi!r}]"
        with pytest.raises(CsvFormatError, match=re.escape(want)):
            read_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1,2,3\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            read_csv(path)

    def test_bad_field_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n1,2,3\n1,2\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            read_csv(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1,2\nfoo,3\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            read_csv(path)

    def test_nan_field_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1,2\n\nnan,3\n")
        with pytest.raises(CsvFormatError, match="line 4: non-finite"):
            read_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            read_csv(path)


_JUNK = ["", " ", "1_0", '"1.5"', '"2', "#", "# 1", "nan", "inf", "-Infinity", "1e500",
         "-1e500", "1e-400", "0x10", "\u0661", "\uff11", " 2 ", "\t3", "+4", ".5", "5.", "1d3",
         "\xa0", "\x0c", "\x1c", "\x0b", "\x85", "\ufeff1", "1 2", "'1'", "e5", "--1", "1e",
         "\x00", "\r"]

_FIELDS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(_JUNK),
    st.text(alphabet='0123456789.-+eE_ \t"#nNaAiIfF\x0c\x1c\xa0', max_size=6),
)


@st.composite
def _csv_bodies(draw):
    """(n, body lines): mostly well-formed rows, with blank lines, junk
    fields and ragged rows mixed in."""
    n = draw(st.integers(1, 3))
    row = st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                 min_size=n + 1, max_size=n + 1),
        st.lists(_FIELDS, min_size=n + 1, max_size=n + 1),
        st.lists(_FIELDS, min_size=0, max_size=n + 3),
    )
    lines = draw(st.lists(st.one_of(row.map(",".join), st.just(""), st.just("  ")),
                          max_size=8))
    return n, lines


class TestCsvMatchesLineReader:
    """read_csv parses through numpy's C reader; the line-by-line reader
    of reference_csv is the oracle: the same arrays bitwise, or the
    same error and message."""

    @staticmethod
    def _compare(path):
        try:
            want = line_read_csv(path)
        except ValueError as exc:   # CsvFormatError, or the domain's own check
            with pytest.raises(type(exc)) as got:
                read_csv(path)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read_csv(path)
        assert got.X.shape == want.X.shape and got.X.tobytes() == want.X.tobytes()
        assert got.y.tobytes() == want.y.tobytes()
        assert got.domain == want.domain

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_csv_bodies(), newline=st.sampled_from(["\n", "\r\n"]), last=st.booleans())
    def test_generated_files(self, tmp_path, case, newline, last):
        n, lines = case
        header = ",".join([f"x{i + 1}" for i in range(n)] + ["y"])
        path = tmp_path / "gen.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(newline.join([header, *lines]) + (newline if last else ""))
        self._compare(path)

    @pytest.mark.parametrize("body", ["", "\n", "\n\n", "\r\n", "1,2\n", "1\n2\n",
                                      "1,2\n   \n", "1_0,2\n", '"1",2\n', "1,2,\n",
                                      "\ufeff1,2\n", "1e500,2\n", "1,2\r3,4\r",
                                      "1\x1c,2\n", "1,\x1f2\n", "\u0661,2\n"])
    def test_edge_cases(self, tmp_path, body):
        """A header-only file reads empty without loadtxt's no-data
        warning; a one-column body is refused, not read as rows; a field
        that numpy's reader would accept and float() refuses is refused."""
        path = tmp_path / "edge.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("x1,y\n" + body)
        self._compare(path)
