"""Property tests of config validation over drawn inputs.

(a) Any JSON value at any dotted config key either passes
`PipelineConfig.validate` or raises ConfigError; nothing is run.
(b) Generator overrides of each default's type that pass `validate` make the
generator fail, if at all, only with a DataError.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from threatbench.cli import _apply_override
from threatbench.errors import ConfigError, DataError
from threatbench.pipeline import DOMAINS, PipelineConfig, default_config, generator_config
from threatbench.synthgen import GENERATOR_PARAMS, GENERATORS

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=6,
)


def _dotted_keys(domain):
    def walk(d, prefix):
        for key, value in d.items():
            yield prefix + key
            if isinstance(value, dict):
                yield from walk(value, f"{prefix}{key}.")

    keys = list(walk(default_config(domain).to_dict(), ""))
    return keys + ["models.dense_ae.layers"] + [f"generator.overrides.{k}" for k in GENERATOR_PARAMS[domain]]


@pytest.mark.parametrize("domain", DOMAINS)
@settings(max_examples=60)
@given(data=st.data())
def test_validate_passes_or_raises_config_error(domain, data):
    config = default_config(domain).to_dict()
    keys = _dotted_keys(domain)
    for key, value in data.draw(st.lists(st.tuples(st.sampled_from(keys), JSON), min_size=1, max_size=3)):
        try:
            _apply_override(config, key, value)
        except ConfigError:
            return
    try:
        PipelineConfig.from_dict(config).validate()
    except ConfigError:
        pass


SPECIAL = st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf])
# ueba's event count grows with users x days x events_per_day_mean; these
# bounds keep one draw to a few thousand events.
SMALL = {"users": st.integers(max_value=3), "days": st.integers(max_value=2),
         "events_per_day_mean": st.floats(-50, 50) | st.integers(-5, 50) | SPECIAL}


def _of_type(default):
    if isinstance(default, float):
        return st.floats() | st.integers(-10, 10) | SPECIAL
    if isinstance(default, int):
        return st.integers()
    if isinstance(default, str):
        return st.text(max_size=4)
    if isinstance(default, list):
        return st.lists(_of_type(default[0]), max_size=6)
    return st.dictionaries(st.text(max_size=4), _of_type(next(iter(default.values()))), max_size=4)


@pytest.mark.parametrize("domain", DOMAINS)
@settings(max_examples=40)
@given(data=st.data())
def test_validated_generator_overrides_generate(domain, data):
    defaults = GENERATOR_PARAMS[domain]
    strategies = {key: SMALL[key] if key in SMALL else _of_type(default) for key, default in defaults.items()}
    config = default_config(domain)
    config.generator["n"] = 200
    config.generator["overrides"] = data.draw(st.fixed_dictionaries({}, optional=strategies))
    if domain == "ueba":
        config.generator["overrides"].setdefault("users", 3)
        config.generator["overrides"].setdefault("days", 2)
    try:
        config.validate()
    except ConfigError:
        return
    try:
        GENERATORS[domain](generator_config(config))
    except DataError:
        pass
