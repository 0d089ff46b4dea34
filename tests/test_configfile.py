"""Tests for the key=value config text format and the typing of its values."""

import dataclasses
import math

import pytest

from featalign.configfile import ConfigError, load_config, parse_config_text
from featalign.geometry import CameraIntrinsics, GeometryError
from featalign.lm_align import AlignmentError, LMConfig
from featalign.losses import LossConfig, LossError
from featalign.pose_init import InitConfig, InitError
from featalign.synth import (
    DatasetConfig,
    DatasetError,
    PhotometricParams,
    SceneConfig,
    SynthError,
    dataset_config_from_mapping,
)
from featalign.toy_train import ToyTrainConfig


class TestParse:
    def test_basic_pairs(self):
        text = "alpha = 1.5\nbeta=hello\n"
        assert parse_config_text(text) == {"alpha": "1.5", "beta": "hello"}

    def test_comments_and_blank_lines(self):
        text = """
        # full-line comment
        gamma = 0.3   # trailing comment

        levels = 1 2 3 4
        """
        assert parse_config_text(text) == {"gamma": "0.3", "levels": "1 2 3 4"}

    def test_value_may_contain_equals(self):
        assert parse_config_text("expr = a=b") == {"expr": "a=b"}

    def test_values_stay_strings(self):
        parsed = parse_config_text("n = 42")
        assert parsed["n"] == "42"

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just a line")

    def test_bad_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("2fast = 1")
        with pytest.raises(ConfigError):
            parse_config_text("a-b = 1")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("key =")
        with pytest.raises(ConfigError):
            parse_config_text("key = # only a comment")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2")


class TestLoad:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "conf.txt"
        path.write_text("x = 3\n# note\ny = 4\n")
        assert load_config(str(path)) == {"x": "3", "y": "4"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.txt"))


def dialect(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def dialect_text(obj, prefix="", skip=()) -> str:
    """Every field of ``obj`` as config lines; nested configs ride along flat."""
    lines = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.name in skip:
            continue
        if dataclasses.is_dataclass(value):
            nested = "photometric_" if isinstance(value, PhotometricParams) else ""
            lines.append(dialect_text(value, nested))
        else:
            lines.append(f"{prefix}{f.name} = {dialect(value)}")
    return "\n".join(lines)


EXAMPLE_K = CameraIntrinsics(fx=96.0, fy=96.0, cx=64.0, cy=48.0, width=128, height=96)

# label: (parser, the object every field of which is written out, error
# class). Dataset keys that are not its own are scene keys.
CONSUMERS = {
    "intrinsics": (CameraIntrinsics.from_mapping, EXAMPLE_K, GeometryError),
    "solver": (LMConfig.from_mapping, LMConfig(), AlignmentError),
    "loss": (LossConfig.from_mapping, LossConfig(), LossError),
    "init": (InitConfig.from_mapping, InitConfig(), InitError),
    "toy training": (ToyTrainConfig.from_mapping, ToyTrainConfig(), LossError),
    "scene": (SceneConfig.from_mapping, SceneConfig(), SynthError),
    "dataset": (
        lambda m: dataset_config_from_mapping(m, "out"),
        DatasetConfig("out", photometric=PhotometricParams()),
        SynthError,
    ),
}


@pytest.mark.parametrize("label", sorted(CONSUMERS))
class TestConsumers:
    def test_every_field_round_trips(self, label):
        parse, expected, _ = CONSUMERS[label]
        text = dialect_text(expected, skip=("out_dir",))
        assert parse(parse_config_text(text)) == expected

    def test_unknown_key_raises_consumer_error(self, label):
        parse, _, error = CONSUMERS[label]
        named = "scene" if label == "dataset" else label
        with pytest.raises(error, match=f"unknown {named} config key 'warp_speed'"):
            parse({"warp_speed": "9"})


# The config classes built from Python with numbers the text parser never
# lets through: label -> (an instance with every field valid, error class).
FINITE_CHECKED = {
    "intrinsics": (EXAMPLE_K, GeometryError),
    "solver": (LMConfig(), AlignmentError),
    "init": (InitConfig(), InitError),
    "photometric": (PhotometricParams(), SynthError),
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("label, key", [
    (label, f.name)
    for label, (instance, _) in FINITE_CHECKED.items()
    for f in dataclasses.fields(instance)
    if type(getattr(instance, f.name)) in (int, float)
])
def test_python_api_refuses_non_finite_numbers(label, key, value):
    instance, error = FINITE_CHECKED[label]
    with pytest.raises(error, match=rf"\b{key}\b"):
        dataclasses.replace(instance, **{key: value})


class TestTypingRules:
    @pytest.mark.parametrize(
        "parse, mapping, error",
        [
            (LMConfig.from_mapping, {"lambda_init": "nan"}, AlignmentError),
            (LMConfig.from_mapping, {"levels": "1 two"}, AlignmentError),
            (InitConfig.from_mapping, {"yaw_range_deg": "inf"}, InitError),
            (InitConfig.from_mapping, {"t_steps": "3.5"}, InitError),
            (LossConfig.from_mapping, {"margin": "1e999"}, LossError),
            (ToyTrainConfig.from_mapping, {"lr": "-inf"}, LossError),
            (ToyTrainConfig.from_mapping, {"w_gd": "nan"}, LossError),
            (SceneConfig.from_mapping, {"depth_discontinuity": "on"}, SynthError),
            (SceneConfig.from_mapping, {"depth_noise": "NaN"}, SynthError),
            (lambda m: dataset_config_from_mapping(m, "out"), {"n_pairs": "many"}, DatasetError),
            (lambda m: dataset_config_from_mapping(m, "out"), {"photometric_a": "inf"}, SynthError),
            (lambda m: dataset_config_from_mapping(m, "out"), {"classes": "huge"}, DatasetError),
            (
                CameraIntrinsics.from_mapping,
                {**dataclasses.asdict(EXAMPLE_K), "fx": float("nan")},
                GeometryError,
            ),
        ],
        ids=[
            "solver-nan", "solver-list-item", "init-inf", "init-int", "loss-overflow",
            "toy-neg-inf", "toy-loss-nan", "scene-bool", "scene-nan", "dataset-int",
            "photometric-inf", "dataset-classes", "intrinsics-json-nan",
        ],
    )
    def test_bad_value_raises_consumer_error(self, parse, mapping, error):
        with pytest.raises(error):
            parse(mapping)

    @pytest.mark.parametrize("word, value", [("1", True), ("TRUE", True), ("Yes", True),
                                             ("0", False), ("false", False), ("NO", False)])
    def test_boolean_words(self, word, value):
        assert SceneConfig.from_mapping({"depth_discontinuity": word}).depth_discontinuity is value

    def test_list_takes_commas_and_spaces(self):
        assert LMConfig.from_mapping({"levels": "1,2, 3 4"}).levels == (1, 2, 3, 4)

    def test_intrinsics_missing_keys(self):
        with pytest.raises(GeometryError, match=r"intrinsics config missing keys: \['fy', 'height'\]"):
            CameraIntrinsics.from_mapping({"fx": "96", "cx": "64", "cy": "48", "width": "128"})

    def test_json_scalars_are_accepted(self):
        assert CameraIntrinsics.from_mapping(dataclasses.asdict(EXAMPLE_K)) == EXAMPLE_K

    def test_nested_config_is_not_a_key(self):
        with pytest.raises(LossError, match="unknown toy training config key 'loss'"):
            ToyTrainConfig.from_mapping({"loss": "1"})
