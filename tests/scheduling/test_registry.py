"""Tests for the pluggable scheduler registry.

Round-trips (register → resolve → run), the error contract (duplicate
names, unknown names, mislabeled factories), entry-point discovery with
fake ``importlib.metadata`` entry points, and the external-policy cache
salt — the registry-side half of the TrialCache integrity story.
"""

import inspect
import math
import warnings

import pytest

from repro.errors import SchedulingError
from repro.scheduling import (
    Aging,
    ElasticPolicyEngine,
    PolicyConfig,
    StaticPriority,
)
from repro.scheduling.literature import EasyBackfill, ewt_priority, prb_priority
from repro.scheduling.power import DEFAULT_BUDGET_WATTS, PowerBudget
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


_SHARED = {"rescale_gap": 180.0, "launcher_slots": 0, "shrink_filter": None}

#: Every built-in: its factory's keywords with defaults, and the stages
#: of the config it resolves to (None = the plain elastic default).
#: ``gap`` is the resolved ``rescale_gap`` when 60 s is passed; ``pin``
#: is what ``job_transform`` pins a 2..8 request to.
_BUILTINS = {
    "elastic": dict(keywords=_SHARED, gap=60.0),
    "moldable": dict(keywords=_SHARED, gap=math.inf),
    "min_replicas": dict(keywords=_SHARED, gap=60.0, pin=2),
    "max_replicas": dict(keywords=_SHARED, gap=60.0, pin=8),
    "aging": dict(
        keywords={**_SHARED, "aging_interval": 600.0, "max_priority": 10},
        gap=60.0, priority=Aging(),
    ),
    "preemptive": dict(keywords=_SHARED, gap=60.0, preempt=True),
    "ewt": dict(keywords=_SHARED, gap=60.0,
                priority=StaticPriority(ewt_priority)),
    "prb": dict(keywords=_SHARED, gap=60.0,
                priority=StaticPriority(prb_priority)),
    "easy-backfill": dict(
        keywords={**_SHARED, "rescale_gap": math.inf, "conservative": False},
        gap=math.inf, backfill=True,
    ),
    "power-capped": dict(
        keywords={**_SHARED, "budget_watts": DEFAULT_BUDGET_WATTS,
                  "watts": None},
        gap=60.0, power=True,
    ),
}


def test_every_builtin_is_pinned():
    assert sorted(REGISTRY.list_policies()) == sorted(_BUILTINS)


@pytest.mark.parametrize("name", sorted(_BUILTINS))
def test_builtin_registration_pinned(name):
    """Each built-in's keyword surface and resolved stages, exactly."""
    want = _BUILTINS[name]
    params = inspect.signature(REGISTRY.describe(name).factory).parameters
    assert {k: p.default for k, p in params.items()} == want["keywords"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())

    def no_shrink(job, replicas):
        return False

    config = REGISTRY.resolve(name, rescale_gap=60.0, launcher_slots=1,
                              shrink_filter=no_shrink)
    assert type(config) is PolicyConfig and config.name == name
    assert config.rescale_gap == want["gap"]
    assert config.launcher_slots == 1
    assert config.shrink_filter is no_shrink
    assert not config.literal_completion_budget
    request = req("j", 2, 8)
    pinned = config.job_transform(request)
    if "pin" in want:
        assert (pinned.min_replicas, pinned.max_replicas) == (want["pin"],) * 2
    else:
        assert pinned is request
    assert config.priority == want.get("priority", StaticPriority())
    if want.get("backfill"):
        assert type(config.backfill) is EasyBackfill
        assert not config.backfill.conservative
    else:
        assert config.backfill is None
    if want.get("power"):
        budget = config.capacity_constraint()
        assert type(budget) is PowerBudget
        assert budget.budget_watts == DEFAULT_BUDGET_WATTS
    else:
        assert config.capacity_constraint is None
    assert config.preempt is want.get("preempt", False)
    # The shared keywords are optional: the bare resolve keeps the defaults.
    bare = REGISTRY.resolve(name)
    assert bare.rescale_gap == (180.0 if want["gap"] == 60.0 else math.inf)
    assert (bare.launcher_slots, bare.shrink_filter) == (0, None)


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
