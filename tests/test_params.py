"""problem.input parsing and run-configuration defaults."""

import pytest

from simflow.params import ParamError, RunConfig, parse_input_text


def test_basic_scalars():
    v = parse_input_text("dt = 0.005\ncells = 100\nname = run1\n")
    assert v == {"dt": 0.005, "cells": 100, "name": "run1"}
    assert isinstance(v["cells"], int)


def test_comments_and_semicolons():
    v = parse_input_text("# header\n dt = 1 ;  # trailing\n\n")
    assert v == {"dt": 1}


def test_alias_tend():
    assert parse_input_text("tend = 1")["t_end"] == 1


def test_bare_comma_list():
    v = parse_input_text("x_up = 100.0, 100.0")
    assert v["x_up"] == [100.0, 100.0]


def test_bracketed_string_list():
    v = parse_input_text('vertex_properties = ["state"]')
    assert v["vertex_properties"] == ["state"]


def test_missing_equals():
    with pytest.raises(ParamError):
        parse_input_text("dt 0.005")


def test_config_defaults():
    c = RunConfig({})
    assert c.seed == 0
    assert c.output_interval == 20
    assert c.dt is None
    assert c.cells(2) == [100, 100]


def test_config_overrides_win():
    c = RunConfig({"seed": 3}, seed=9)
    assert c.seed == 9


def test_cells_list_length_checked():
    c = RunConfig({"cells": [10, 20, 30]})
    assert c.cells(3) == [10, 20, 30]
    with pytest.raises(ParamError):
        c.cells(2)


def test_scalar_overrides_skip_lists():
    c = RunConfig({"dt": 0.5, "x_up": [1.0, 2.0], "tag": "x"})
    assert c.scalar_overrides == {"dt": 0.5}
