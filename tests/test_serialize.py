"""The writer against the stdlib oracle it replaced: the same bytes, case by case."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotorsim.serialize import to_csv_text, to_json_text, write_csv, write_json

from conftest import oracle_csv_text, oracle_json_text

HARD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 123456789.0, 1e16, 1e-5,
               9.9999999995e-5, 0.1, 1 / 3, -2.5e-300, 5e-324, 1.7976931348623157e308,
               123456789.5, 999999999.5, 1e21, 1e-7]


def assert_same_json(document):
    assert to_json_text(document) == oracle_json_text(document)


def assert_same_csv(header, rows):
    assert to_csv_text(header, rows) == oracle_csv_text(header, rows)


class TestJson:
    @pytest.mark.parametrize("value", HARD_FLOATS)
    def test_float_alone_in_a_list_and_in_a_dict(self, value):
        assert_same_json({"x": value})
        assert_same_json({"x": [value], "y": {"z": value}})

    def test_hard_floats_together(self):
        assert_same_json({"values": HARD_FLOATS, "nested": {"values": HARD_FLOATS}})

    def test_numpy_scalars_and_arrays(self):
        assert_same_json({
            "f32": np.float32(0.1), "f64": np.float64(1 / 3), "i64": np.int64(-7),
            "u8": np.uint8(200), "mixed": [np.float32(2.5), np.int64(3), 1.25, "a", None],
            "array": np.array([0.1, math.nan, -0.0, 1e16]),
            "ints": np.arange(4), "matrix": np.linspace(0, 1, 6).reshape(2, 3),
            "f32_array": np.array([0.1, 0.2], dtype=np.float32),
            "empty": np.array([]),
        })

    def test_tuples_lists_of_lists_and_empties_at_every_depth(self):
        assert_same_json({
            "tuple": (1.5, (2, 3.25), ()),
            "grid": [[1.0, 2.0], [3.0, 4.0], []],
            "empty_list": [], "empty_dict": {},
            "deep": {"a": [{}], "b": [[], {}], "c": {"d": {"e": []}}},
            "rows_of_empty_dicts": [{}, {}],
        })

    def test_empty_document(self):
        assert_same_json({})

    def test_rows_share_a_key_order(self):
        rows = [{"x": 0.1 * i, "n": i, "verdict": "pass" if i % 2 else "warn",
                 "ratio": math.inf if i == 3 else -0.0, "flag": i == 2, "none": None}
                for i in range(6)]
        assert_same_json({"config": {"a": 1.0}, "rows": rows})

    def test_rows_with_differing_key_orders_and_nested_cells(self):
        assert_same_json({"rows": [{"a": 1.0, "b": 2.0}, {"b": 3.0, "a": 4.0}]})
        assert_same_json({"rows": [{"a": 1.0}, {"a": 2.0, "b": 3.0}]})
        assert_same_json({"rows": [{"a": [1.0, 2.0]}, {"a": [3.0]}]})
        assert_same_json({"rows": [{"a": 1.0}, [2.0], 3.0]})

    def test_keys_that_are_not_plain_strings(self):
        assert_same_json({1: "int", 2.5: "float", True: "bool", None: "none",
                          "%s 100%": {"%d": [1.0], "é\n": 2.0}})
        assert_same_json({"rows": [{"50%": 0.5, '"q"': 1.0}, {"50%": 0.25, '"q"': 2.0}]})

    def test_strings_bools_and_none(self):
        assert_same_json({
            "quote": '"', "newline": "a\nb", "tab": "\t", "backslash": "\\",
            "non_ascii": "κ = 9/g⁴ \U0001d4c1", "empty": "",
            "bools": [True, False], "none": None, "list": ["x", '"', "\n", " "],
        })

    def test_schema_version_stays_first_when_the_document_sets_it(self):
        assert_same_json({"a": 1.0, "schema_version": 7})

    def test_unserializable_value_still_raises(self):
        for bad in ({"x": {1, 2}}, {"x": [np.bool_(True)]}, {"x": 1j}):
            with pytest.raises(TypeError):
                oracle_json_text(bad)
            with pytest.raises(TypeError):
                to_json_text(bad)

    def test_write_json_returns_the_written_text(self, tmp_path):
        doc = {"rows": [{"a": 0.1}], "x": np.float64(2.0)}
        text = write_json(tmp_path / "out.json", doc)
        assert text == oracle_json_text(doc)
        assert (tmp_path / "out.json").read_text() == text


class TestCsv:
    def test_floats_ints_and_numpy_cells(self):
        with np.errstate(over="ignore"):  # float32 of 1.8e308 is inf
            rows = [[v, i, np.float32(v), np.float64(v), np.int64(i), "pass"]
                    for i, v in enumerate(HARD_FLOATS)]
        assert_same_csv(["a", "b", "c", "d", "e", "f"], rows)

    def test_other_cell_types_use_str(self):
        assert_same_csv(["a", "b"], [[True, None], [np.bool_(False), 1j],
                                     [[1, 2], (3,)], [{"k": 1}, b"x"]])

    @pytest.mark.parametrize("cell", [",", '"', "\n", "\r", "", "a,b", 'say "hi"',
                                      "line\nbreak", " ", "é", "%s", "%d"])
    def test_cells_that_may_need_quoting(self, cell):
        assert_same_csv(["a", "b"], [[1.0, cell], [cell, 2.0], [cell, cell]])
        assert_same_csv(["a"], [[cell], [1.0], [cell]])

    def test_tuples_generators_and_ragged_rows(self):
        assert_same_csv(["mu", "Q", "energy"], list(zip([0.0, 0.5], [0, 1], [-1.0, -1.5])))
        assert_same_csv(["a"], [(), (1.0,), (1.0, 2), [], ("x", 3.0, None)])
        text = to_csv_text(("a", "b"), ((1.0, 2.0) for _ in range(3)))
        assert text == oracle_csv_text(("a", "b"), ((1.0, 2.0) for _ in range(3)))

    def test_header_only_and_awkward_headers(self):
        assert_same_csv(["a", "b"], [])
        assert_same_csv(["a,b", '"q"', "", 1.5, None], [[1, 2, 3, 4, 5]])

    def test_one_signature_table(self):
        rows = [[float(i) / 7, np.int64(i), f"v{i}"] for i in range(500)]
        assert_same_csv(["x", "n", "verdict"], rows)
        rows[250][2] = "needs, quoting"
        assert_same_csv(["x", "n", "verdict"], rows)

    def test_write_csv_returns_the_written_text(self, tmp_path):
        text = write_csv(tmp_path / "out.csv", ["a", "b"], [[0.1, "x"], [2, ","]])
        assert text == oracle_csv_text(["a", "b"], [[0.1, "x"], [2, ","]])
        assert (tmp_path / "out.csv").read_text() == text


SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(HARD_FLOATS),
    st.integers(-10**20, 10**20),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
)
KEYS = st.one_of(st.text(max_size=5), st.sampled_from(["a", "b", "%s", "x\ny"]))


def rows_of(values):
    """Lists of flat dicts, mostly sharing one key order, to reach the row templates."""
    return st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: values for k in keys}), max_size=4))


TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
        rows_of(children),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=5).map(np.array),
    ),
    max_leaves=40,
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(KEYS, TREES, max_size=5))
def test_json_matches_oracle_on_random_trees(document):
    assert_same_json(document)


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.text(max_size=3), max_size=4),
       st.lists(st.lists(SCALARS, max_size=4), max_size=6))
def test_csv_matches_oracle_on_random_tables(header, rows):
    assert_same_csv(header, rows)


# one cell type per column, so every row shares one signature and one cached template
COLUMNS = [st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
           st.integers(-5, 5), st.integers(-5, 5).map(np.int64), st.booleans()]
TABLES = st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=4).flatmap(
    lambda columns: st.lists(st.tuples(*columns), max_size=6))


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(TABLES)
def test_csv_matches_oracle_on_one_signature_tables(rows):
    assert_same_csv(["c"] * (len(rows[0]) if rows else 1), rows)
