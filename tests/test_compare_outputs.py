"""scripts/compare_outputs.py: how it describes a file that differs, and
which exit codes fail it."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_names_an_added_key_and_sizes_a_changed_number(compare):
    ref = b'{"fits": [{"t": 1.0}, {"t": 2.0}], "n": 2}'
    here = b'{"fits": [{"t": 1.0, "flags": ["clamped:0"]}, {"t": 2.5}], "n": 2}'
    text = compare.describe_difference("analysis.json", ref, here)
    assert "structure differs" not in text
    assert "fits.flags: 1 value(s) only in this checkout" in text
    assert "fits.t: largest absolute 0.5, relative 0.2" in text
    assert "\n      n:" not in text


def test_json_names_a_key_whose_value_is_empty(compare):
    text = compare.describe_difference("a.json", b'{"a": 1}', b'{"a": 1, "notes": []}')
    assert text == "values differ:\n      notes: 1 value(s) only in this checkout"


@pytest.mark.parametrize("ref, here, expected", [
    (b"# kind=film\nfield_gauss,delta_mK\n50.0,0.1\n100.0,0.4\n",
     b"# kind=film\nfield_gauss,delta_mK,sigma_mK\n50.0,0.1,0.01\n100.0,0.4,0.02\n",
     ["sigma_mK: 2 value(s) only in this checkout"]),
    (b"field_gauss,a,b\n50.0,1.0,2.0\n", b"field_gauss,b\n50.0,2.5\n",
     ["a: 1 value(s) only in the ref", "b: largest absolute 0.5, relative 0.2"]),
], ids=["added", "dropped"])
def test_csv_names_a_column_in_one_version_only(compare, ref, here, expected):
    text = compare.describe_difference("delta.csv", ref, here)
    assert text == "values differ:" + "".join(f"\n      {line}" for line in expected)


def test_unparsable_json_is_named(compare):
    text = compare.describe_difference("a.json", b"{", b"{}")
    assert text.startswith("does not parse:")


def test_a_command_exiting_1_fails_even_where_the_ref_agrees(compare):
    codes = {"ref": {"1/a": [0, 0], "1/b": [1], "1/c": [0]},
             "checkout": {"1/a": [0, 0], "1/b": [1], "1/c": [2]}}
    assert compare.exit_differences("HEAD", codes) == [
        "exit codes of 1/c: [0] at HEAD, [2] here",
        "1/b: a command exits 1 here (an uncaught exception or a RuntimeWarning); "
        "no documented exit code is 1"]


def test_every_config_is_read_by_a_case(compare):
    matrix = compare.cases(1)
    # each declared case is one entry: no two share a name
    assert len(matrix) == len(compare.PLAIN) + sum(len(runs) for _, runs
                                                   in compare.CONFIGS.values())
    read = {arg for commands in matrix.values() for argv in commands for arg in argv}
    assert [name for name in compare.CONFIGS if f"../../{name}.json" not in read] == []
