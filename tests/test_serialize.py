"""The writer against the stdlib oracle it replaced: the same bytes, case by case."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotorsim import serialize
from rotorsim.serialize import Table, to_csv_text, to_json_text, write_csv, write_json

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


# --- the column path: one "%.9g" pass per float column ----------------------

# HARD_FLOATS and the edges of the cases where "%.9g" is not the JSON literal
EDGE_FLOATS = HARD_FLOATS + [99999999.95, 1e8, 1e17, 9.99999999e16, 12345678.95,
                             0.99999999995, 2.2250738585072014e-308]


def table_of(rows):
    """Dict rows of float and str cells as a Table: a float64 array or a list per column."""
    columns = [list(column) for column in zip(*map(dict.values, rows))]
    return Table(rows[0], [np.array(column) if {type(v) for v in column} == {float} else column
                           for column in columns])


def assert_same_table(rows):
    """Dict rows through to_json_text, their values through to_csv_text, plain and as a Table."""
    header = list(rows[0])
    lists = [list(row.values()) for row in rows]
    assert_same_json({"rows": rows})
    assert_same_csv(header, lists)
    table = table_of(rows)
    assert to_csv_text(header, table) == oracle_csv_text(header, lists)
    assert to_json_text({"rows": table}) == oracle_json_text({"rows": rows})
    # anything else that iterates the table reads the rows it stands for
    assert oracle_csv_text(header, table) == oracle_csv_text(header, lists)
    assert oracle_json_text({"rows": table}) == oracle_json_text({"rows": rows})


class TestColumns:
    def test_edge_floats_in_a_2000_row_table(self):
        values = (EDGE_FLOATS * (2000 // len(EDGE_FLOATS) + 1))[:2000]
        rows = [{"x": v, "verdict": "pass" if i % 3 else "warn"} for i, v in enumerate(values)]
        assert_same_table(rows)
        assert_same_table([{"x": -v, "verdict": "fail"} for v in values])

    def test_repeated_value_columns(self):
        for value in (0.0, -0.0, math.nan, math.inf, 1e8, 0.1):
            assert_same_table([{"c": value, "x": float(i)} for i in range(50)])
        # equal but for the sign of zero, so not one repeated value
        assert_same_table([{"c": 0.0}] * 3 + [{"c": -0.0}])

    def test_tables_at_every_depth_of_a_document(self):
        rows = [{"x": 1.5, "verdict": "pass"}, {"x": 2.0, "verdict": "warn"}]
        table = table_of(rows)
        assert to_json_text({"a": table, "b": [table, {"c": table}], "d": 0.1}) == (
            oracle_json_text({"a": rows, "b": [rows, {"c": rows}], "d": 0.1}))

    def test_literal_rule_on_random_bit_patterns_integers_and_decades(self):
        rng = np.random.default_rng(20261019)
        values = np.concatenate([
            rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),
            rng.uniform(-1e10, 1e10, 50_000),
            rng.integers(-10**9, 10**9, 20_000).astype(float),
            10.0 ** rng.uniform(-320, 308, 20_000),
            np.array(EDGE_FLOATS)])
        cells = serialize._format9(values.tolist())
        literals = serialize._json_floats(values, cells)
        assert literals == [json.dumps(float(cell)) for cell in cells]

    def test_a_table_formats_each_float_cell_once(self, monkeypatch):
        formatted = []

        def counting(values):
            formatted.append(len(values))
            return format9(values)
        format9 = serialize._format9
        monkeypatch.setattr(serialize, "_format9", counting)
        header = ["x", "zero", "verdict"]
        table = Table(header, [np.arange(300) / 7, np.zeros(300), ["pass"] * 300])
        rows = [{"x": i / 7, "zero": 0.0, "verdict": "pass"} for i in range(300)]
        lists = [list(row.values()) for row in rows]
        assert to_csv_text(header, table) == oracle_csv_text(header, lists)
        assert to_json_text({"config": {"a": 0.5}, "rows": table}) == oracle_json_text(
            {"config": {"a": 0.5}, "rows": rows})
        # x cell by cell and the repeated zero once, for both writers
        assert sorted(formatted) == [1, 300]

    def test_rows_that_are_not_one_table_keep_the_row_path(self):
        assert_same_csv(["a"], [[0.0], [0.0, 0.0]])
        assert_same_csv(["a", "b"], [[0.5, "x"], (0.25, "y"), [np.float64(0.1), "z"]])
        assert_same_csv(["a", "b"], [[1.5, "a,b"], [2.5, "q"], [3.5, 'say "hi"']])
        assert_same_table([{"a": 1.5, "b": "a,b"}, {"a": 2.5, "b": "\n"}])
        assert_same_json({"rows": [{"a": 1.5, "b": np.float32(0.1)}, {"a": 2.5, "b": 3}]})

    def test_table_string_cells_that_may_be_quoted(self):
        for cell in ('"', "\r", ""):
            assert_same_table([{"a": 1.5, "b": "x"}, {"a": 2.5, "b": cell}])
        # a row's only cell is quoted when empty
        assert_same_table([{"s": "x"}, {"s": ""}])


FLOAT_COLUMN = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
CELL_COLUMN = st.one_of(st.sampled_from(["pass", "warn", "fail"]), st.text(max_size=3))


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 4).flatmap(lambda width: st.lists(
    st.tuples(st.lists(st.one_of(FLOAT_COLUMN, st.sampled_from(EDGE_FLOATS)),
                       min_size=width, max_size=width), CELL_COLUMN),
    min_size=1, max_size=40)))
def test_float_columns_match_oracle_through_both_writers(rows):
    """Rows of float columns beside a string column, through the column path of each writer."""
    assert_same_table([{**{f"x{j}": v for j, v in enumerate(floats)}, "s": cell}
                       for floats, cell in rows])
