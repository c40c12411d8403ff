"""Tests for the pluggable scheduler registry.

Round-trips (register → resolve → run), the error contract (duplicate
names, unknown names, mislabeled factories), entry-point discovery with
fake ``importlib.metadata`` entry points, and the external-policy cache
salt — the registry-side half of the TrialCache integrity story.
"""

import warnings

import pytest

from repro.errors import SchedulingError
from repro.scheduling import ElasticPolicyEngine, PolicyConfig
from repro.scheduling.registry import (
    REGISTRY,
    PolicyRegistrationError,
    SchedulerRegistry,
    UnknownPolicyError,
)
from tests.scheduling.conftest import req


def fresh_registry():
    """An isolated registry with entry-point discovery stubbed empty."""
    registry = SchedulerRegistry()
    registry._entry_points_loaded = True  # no importlib.metadata scans
    return registry


class TestRegistration:
    def test_programmatic_round_trip(self):
        registry = fresh_registry()
        registry.register("fifo", lambda **kw: PolicyConfig(name="fifo", **kw))
        config = registry.resolve("fifo", rescale_gap=60.0)
        assert config.name == "fifo"
        assert config.rescale_gap == 60.0
        assert "fifo" in registry

    def test_decorator_round_trip(self):
        registry = fresh_registry()

        @registry.register("sjf", description="shortest first", tags=("demo",))
        def _sjf(**overrides):
            return PolicyConfig(name="sjf", **overrides)

        spec = registry.describe("sjf")
        assert spec.description == "shortest first"
        assert spec.tags == ("demo",)
        assert not spec.paper
        assert registry.resolve("sjf").name == "sjf"

    def test_duplicate_name_rejected(self):
        registry = fresh_registry()
        registry.register("x", lambda: PolicyConfig(name="x"))
        with pytest.raises(PolicyRegistrationError, match="already registered"):
            registry.register("x", lambda: PolicyConfig(name="x"))

    def test_duplicate_name_replace_flag(self):
        registry = fresh_registry()
        registry.register("x", lambda: PolicyConfig(name="x", rescale_gap=1.0))
        registry.register(
            "x", lambda: PolicyConfig(name="x", rescale_gap=2.0), replace=True
        )
        assert registry.resolve("x").rescale_gap == 2.0

    def test_bad_name_rejected(self):
        registry = fresh_registry()
        with pytest.raises(PolicyRegistrationError):
            registry.register("", lambda: None)
        with pytest.raises(PolicyRegistrationError):
            registry.register(None, lambda: None)

    def test_non_callable_factory_rejected(self):
        registry = fresh_registry()
        with pytest.raises(PolicyRegistrationError, match="callable"):
            registry.register("x", "not a factory")

    def test_mislabeled_factory_rejected_at_resolve(self):
        """A factory whose config carries the wrong name would corrupt
        every name-keyed consumer — resolve refuses it."""
        registry = fresh_registry()
        registry.register("right", lambda: PolicyConfig(name="wrong"))
        with pytest.raises(PolicyRegistrationError, match="named 'wrong'"):
            registry.resolve("right")

    def test_unknown_name_lists_available(self):
        registry = fresh_registry()
        registry.register("only", lambda: PolicyConfig(name="only"))
        with pytest.raises(UnknownPolicyError, match="only"):
            registry.resolve("missing")
        with pytest.raises(UnknownPolicyError):
            registry.describe("missing")

    def test_errors_are_scheduling_and_value_errors(self):
        """Unknown names keep their documented ValueError contract, and
        repro's blanket SchedulingError handling must apply."""
        assert issubclass(UnknownPolicyError, SchedulingError)
        assert issubclass(UnknownPolicyError, ValueError)
        assert issubclass(PolicyRegistrationError, SchedulingError)
        assert issubclass(PolicyRegistrationError, ValueError)


class TestGlobalRegistry:
    def test_paper_policies_registered(self):
        assert REGISTRY.paper_policies() == (
            "elastic", "moldable", "min_replicas", "max_replicas",
        )
        for name in REGISTRY.paper_policies():
            assert REGISTRY.describe(name).paper

    def test_new_schedulers_registered(self):
        names = REGISTRY.list_policies()
        for name in ("ewt", "prb", "easy-backfill", "power-capped"):
            assert name in names
            assert not REGISTRY.describe(name).paper

    def test_list_policies_paper_first(self):
        names = REGISTRY.list_policies()
        assert names[:4] == list(REGISTRY.paper_policies())

    def test_resolved_config_drives_an_engine(self, request_factory):
        engine = ElasticPolicyEngine(8, REGISTRY.resolve("elastic"))
        decisions = engine.on_submit(request_factory("a", 2, 8), 0.0)
        assert [d.job.name for d in decisions] == ["a"]


class _FakeEntryPoint:
    def __init__(self, name, payload):
        self.name = name
        self._payload = payload

    def load(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class _PluginModule:
    """An object exposing the ``register_policies(registry)`` hook."""

    @staticmethod
    def register_policies(registry):
        registry.register(
            "plugin-policy",
            lambda **kw: PolicyConfig(name="plugin-policy", **kw),
            description="from a plugin",
            source="entry-point",
        )


def _external_factory(**overrides):
    return PolicyConfig(name="ext", **overrides)


# Fake an out-of-tree origin: external_salt keys off __module__, and a
# function's source stays introspectable regardless of the attribution.
_external_factory.__module__ = "thirdparty.policies"


class TestEntryPointDiscovery:
    def _registry_with(self, monkeypatch, entry_points):
        registry = SchedulerRegistry()
        monkeypatch.setattr(
            registry, "_iter_entry_points", lambda: tuple(entry_points)
        )
        return registry

    def test_register_policies_hook(self, monkeypatch):
        registry = self._registry_with(
            monkeypatch, [_FakeEntryPoint("pkg", _PluginModule())]
        )
        assert registry.resolve("plugin-policy").name == "plugin-policy"
        assert registry.describe("plugin-policy").description == "from a plugin"

    def test_plain_factory_registered_under_entry_point_name(self, monkeypatch):
        registry = self._registry_with(
            monkeypatch,
            [_FakeEntryPoint("ext", lambda **kw: PolicyConfig(name="ext", **kw))],
        )
        assert "ext" in registry.list_policies()
        assert registry.describe("ext").source == "entry-point"

    def test_discovery_is_lazy_and_once(self, monkeypatch):
        calls = []
        registry = SchedulerRegistry()
        monkeypatch.setattr(
            registry,
            "_iter_entry_points",
            lambda: calls.append(1)
            or (_FakeEntryPoint("ext", lambda: PolicyConfig(name="ext")),),
        )
        assert not calls  # construction does not scan
        registry.resolve("ext")
        registry.list_policies()
        registry.resolve("ext")
        assert len(calls) == 1

    def test_broken_plugin_warns_and_is_skipped(self, monkeypatch):
        registry = self._registry_with(
            monkeypatch,
            [
                _FakeEntryPoint("broken", RuntimeError("boom")),
                _FakeEntryPoint("ok", lambda **kw: PolicyConfig(name="ok", **kw)),
            ],
        )
        registry.register("builtin", lambda: PolicyConfig(name="builtin"))
        with pytest.warns(RuntimeWarning, match="broken"):
            names = registry.list_policies()
        assert "ok" in names and "broken" not in names
        assert "builtin" in names  # one bad plugin takes nothing down

    def test_collision_with_builtin_warns_and_keeps_builtin(self, monkeypatch):
        registry = self._registry_with(
            monkeypatch,
            [_FakeEntryPoint("mine", lambda: PolicyConfig(name="stolen"))],
        )
        registry.register(
            "mine", lambda: PolicyConfig(name="mine"), description="in-tree"
        )
        with pytest.warns(RuntimeWarning, match="collides"):
            registry.list_policies()
        assert registry.describe("mine").description == "in-tree"


class TestExternalSalt:
    def test_in_tree_only_registry_has_empty_salt(self):
        # The global registry ships only repro.* factories, so existing
        # TrialCache keys stay valid for every user without plugins.
        assert REGISTRY.external_salt() == ""

    def test_external_factory_changes_salt(self):
        registry = fresh_registry()
        registry.register("ext", _external_factory)
        salt = registry.external_salt()
        assert salt != ""
        assert len(salt) == 16

    def test_salt_is_deterministic_and_name_sensitive(self):
        a, b = fresh_registry(), fresh_registry()
        a.register("ext", _external_factory)
        b.register("ext", _external_factory)
        assert a.external_salt() == b.external_salt()
        c = fresh_registry()
        c.register("other", _external_factory)
        assert c.external_salt() != a.external_salt()


def test_trial_cache_salt_folds_in_external_policies(tmp_path, monkeypatch):
    """The cache-integrity end of the story: an out-of-tree registration
    changes TrialCache's effective salt; an in-tree-only registry keeps
    the plain code salt (existing caches stay warm)."""
    from repro.schedsim.cache import TrialCache, code_salt

    plain = TrialCache(tmp_path)
    assert plain.salt == code_salt()

    monkeypatch.setattr(REGISTRY, "external_salt", lambda: "abcd1234abcd1234")
    salted = TrialCache(tmp_path)
    assert salted.salt == f"{code_salt()}:abcd1234abcd1234"
    task = ("trial", 1, "elastic", 90.0, 180.0, 0, 64, 16)
    assert plain.key(task) != salted.key(task)


def test_registry_demo_pattern_with_warning_free_resolve(recwarn):
    """resolve() itself must not emit deprecation noise."""
    warnings.simplefilter("always")
    REGISTRY.resolve("elastic")
    assert not [w for w in recwarn if w.category is DeprecationWarning]
