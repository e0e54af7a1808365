import copy

import pytest

from koopbilevel import ConfigError, cli
from koopbilevel.config import validate_config

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# the keys each block's schema allows; the mbc block allows those its type
# takes, which are the keys of the bundle's own mbc
SCHEMA = {
    None: {"system", "dictionary", "identification", "mbc", "N", "variants",
           "upper", "sweep"},
    "identification": {"n_s", "seed", "box"},
    "upper": {"T_min", "T_max"},
    "sweep": {"T_min", "T_max", "points", "amplitudes_deg"},
}

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
)


@pytest.mark.parametrize("bundle", ["fig1", "pendulum", "walker"])
@pytest.mark.parametrize("block", [None, "identification", "upper", "mbc", "sweep"])
def test_a_key_outside_the_schema_is_rejected_at_its_block(bundle, block):
    base = cli.load_bundle(bundle)["config"]
    validate_config(base)
    allowed = SCHEMA.get(block) or set(base[block])
    path = block or "config"

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(key=st.text(max_size=12).filter(lambda k: k not in allowed),
                      value=JSON_VALUES)
    def check(key, value):
        cfg = copy.deepcopy(base)
        (cfg.setdefault(block, {}) if block else cfg)[key] = value
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert str(err.value).startswith(f"{path}: ")

    check()
