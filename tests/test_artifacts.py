"""The one CSV format that every CSV artifact is written and read in."""

import numpy as np
import pytest

from koopbilevel import ArtifactError, artifacts


def test_csv_round_trips_floats_bit_for_bit(tmp_path):
    rng = np.random.default_rng(0)
    values = np.concatenate([
        rng.standard_normal(24) * 10.0 ** rng.integers(-300, 300, 24),
        [0.1, 1.0 / 3.0, -0.0, 5e-324, 1.7976931348623157e308, np.inf, -np.inf, np.nan],
    ]).reshape(-1, 4)
    path = str(tmp_path / "rows.csv")
    artifacts.write_csv(path, ["a", "b", "c", "d"], values)
    header, data = artifacts.read_csv(path)
    assert header == ["a", "b", "c", "d"]
    assert data.shape == values.shape
    assert np.array_equal(data.view(np.uint64), values.view(np.uint64))


def test_csv_writes_a_string_column_as_it_is(tmp_path):
    path = tmp_path / "rows.csv"
    artifacts.write_csv(str(path), ("variant", "w"), [["b0", 0], ["soft_w0.5", 0.5]])
    assert path.read_text() == "variant,w\nb0,0.0\nsoft_w0.5,0.5\n"


@pytest.mark.parametrize("text", ["", "a,b\n1.0,2.0\n3.0\n", "a,b\n1.0,2.0,3.0\n",
                                  "a,b\n1.0,abc\n"],
                         ids=["empty", "short_row", "long_row", "not_a_number"])
def test_read_csv_names_a_malformed_file(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ArtifactError) as info:
        artifacts.read_csv(str(path))
    assert str(info.value).startswith(f"{path}: ")
