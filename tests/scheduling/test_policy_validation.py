"""PolicyConfig construction validation: bad parameters fail loudly."""

import math

import pytest

from repro.errors import CapacityError
from repro.scheduling import ElasticPolicyEngine, PolicyConfig


class TestPolicyConfigValidation:
    def test_defaults_are_valid(self):
        PolicyConfig()

    def test_rejects_negative_rescale_gap(self):
        with pytest.raises(ValueError, match="rescale_gap"):
            PolicyConfig(rescale_gap=-1.0)

    def test_rejects_nan_rescale_gap(self):
        with pytest.raises(ValueError, match="NaN"):
            PolicyConfig(rescale_gap=float("nan"))

    def test_rejects_non_numeric_rescale_gap(self):
        with pytest.raises(ValueError, match="rescale_gap"):
            PolicyConfig(rescale_gap="180")
        with pytest.raises(ValueError, match="rescale_gap"):
            PolicyConfig(rescale_gap=True)

    def test_infinite_gap_is_the_moldable_policy(self):
        assert PolicyConfig(rescale_gap=math.inf).is_moldable

    def test_rejects_negative_launcher_slots(self):
        with pytest.raises(ValueError, match="launcher_slots"):
            PolicyConfig(launcher_slots=-1)

    def test_rejects_fractional_launcher_slots(self):
        with pytest.raises(ValueError, match="launcher_slots"):
            PolicyConfig(launcher_slots=0.5)
        with pytest.raises(ValueError, match="launcher_slots"):
            PolicyConfig(launcher_slots=True)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="name"):
            PolicyConfig(name="")
        with pytest.raises(ValueError, match="name"):
            PolicyConfig(name=7)

    def test_rejects_uncallable_hooks(self):
        with pytest.raises(ValueError, match="job_transform"):
            PolicyConfig(job_transform="not callable")
        with pytest.raises(ValueError, match="shrink_filter"):
            PolicyConfig(shrink_filter=42)

    @pytest.mark.parametrize("value", ["no", 1, 0, None])
    def test_rejects_non_bool_literal_completion_budget(self, value):
        with pytest.raises(
            ValueError,
            match=f"'elastic'.*literal_completion_budget.*{value!r}",
        ):
            PolicyConfig(literal_completion_budget=value)

    def test_none_shrink_filter_is_fine(self):
        PolicyConfig(shrink_filter=None)

    def test_error_messages_name_the_value(self):
        with pytest.raises(ValueError, match="-3"):
            PolicyConfig(launcher_slots=-3)
        with pytest.raises(ValueError, match="-2.5"):
            PolicyConfig(rescale_gap=-2.5)


class TestEngineConstructionValidation:
    def test_rejects_nonpositive_total_slots(self):
        with pytest.raises(CapacityError, match="total_slots"):
            ElasticPolicyEngine(0)
        with pytest.raises(CapacityError, match="total_slots"):
            ElasticPolicyEngine(-5)
