"""Tests for the API server: CRUD, versions, watches, graceful deletion."""

import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AlreadyExistsError, NotFoundError
from repro.k8s import ApiServer, ConfigMap, LabelSelector, Pod, PodSpec
from repro.k8s.watch import EventType, WatchEvent, WatchHub
from repro.sim import Engine


@pytest.fixture
def api(engine):
    return ApiServer(engine)


def make_pod(name, labels=None):
    return Pod(name, PodSpec(), labels=labels)


class TestCrud:
    def test_create_and_get(self, api):
        pod = api.create(make_pod("p1"))
        assert api.get("Pod", "p1") is pod
        assert pod.meta.creation_time == 0.0
        assert pod.meta.resource_version > 0

    def test_create_duplicate_rejected(self, api):
        api.create(make_pod("p1"))
        with pytest.raises(AlreadyExistsError):
            api.create(make_pod("p1"))

    def test_get_missing_raises(self, api):
        with pytest.raises(NotFoundError):
            api.get("Pod", "ghost")
        assert api.try_get("Pod", "ghost") is None

    def test_list_sorted_and_filtered(self, api):
        api.create(make_pod("b", labels={"job": "x"}))
        api.create(make_pod("a", labels={"job": "y"}))
        api.create(make_pod("c", labels={"job": "x"}))
        names = [p.name for p in api.list("Pod")]
        assert names == ["a", "b", "c"]
        sel = LabelSelector.of(job="x")
        assert [p.name for p in api.list("Pod", selector=sel)] == ["b", "c"]

    def test_list_kind_isolation(self, api):
        api.create(make_pod("p"))
        api.create(ConfigMap("cm"))
        assert len(api.list("Pod")) == 1
        assert len(api.list("ConfigMap")) == 1

    def test_update_bumps_resource_version(self, api):
        pod = api.create(make_pod("p"))
        rv = pod.meta.resource_version
        api.update(pod)
        assert pod.meta.resource_version > rv

    def test_update_missing_raises(self, api):
        with pytest.raises(NotFoundError):
            api.update(make_pod("ghost"))

    def test_patch_applies_mutation(self, api):
        pod = api.create(make_pod("p"))
        api.patch(pod, lambda p: p.meta.labels.update(role="worker"))
        assert api.get("Pod", "p").meta.labels["role"] == "worker"

    def test_delete_unbound_pod_is_immediate(self, api):
        pod = api.create(make_pod("p"))
        api.delete(pod)
        assert not api.exists("Pod", "p")

    def test_delete_missing_raises(self, api):
        with pytest.raises(NotFoundError):
            api.delete(make_pod("ghost"))

    def test_object_count(self, api):
        api.create(make_pod("p1"))
        api.create(make_pod("p2"))
        api.create(ConfigMap("cm"))
        assert api.object_count() == 3
        assert api.object_count("Pod") == 2


LABEL_VALUES = {"app": ("a", "b"), "role": ("launcher", "worker"), "tier": ("x",)}


def random_labels(rng):
    return {key: rng.choice(values) for key, values in LABEL_VALUES.items()
            if rng.random() < 0.7}


def random_selectors(rng):
    """Empty, one-label, two-label and never-matching selectors."""
    yield LabelSelector()
    for size in (1, 2):
        keys = rng.sample(sorted(LABEL_VALUES), size)
        yield LabelSelector.from_dict(
            {key: rng.choice(LABEL_VALUES[key]) for key in keys})
    yield LabelSelector.of(app="none")


def brute_force_list(stored, kind, namespace, selector):
    """The full scan the indexes replace: filter everything, then sort."""
    objs = [o for o in stored.values() if o.kind == kind
            and (namespace is None or o.namespace == namespace)
            and (selector is None or selector.matches(o.meta.labels))]
    return sorted(objs, key=lambda o: (o.namespace, o.name))


class TestIndexesAgainstAFullScan:
    """A seeded random driver over every mutation that moves an object
    in or out of the per-kind store or the label index."""

    @pytest.mark.parametrize("seed", range(12))
    def test_list_and_count_match_a_full_scan(self, engine, seed):
        rng = random.Random(seed)
        api = ApiServer(engine)
        stored = {}  # key -> object, the driver's own record of the store
        names = itertools.count()
        for _ in range(160):
            op = rng.choice(("create", "create", "relabel", "delete", "finalize"))
            pods = [o for o in stored.values() if o.kind == "Pod"]
            if op == "create" or not stored:
                namespace = rng.choice(("default", "other"))
                name = f"o{next(names)}"
                if rng.random() < 0.7:
                    obj = Pod(name, PodSpec(), namespace=namespace,
                              labels=random_labels(rng))
                    if rng.random() < 0.5:
                        obj.status.node_name = "node-0"  # bound: graceful delete
                else:
                    obj = ConfigMap(name, namespace=namespace)
                    obj.meta.labels.update(random_labels(rng))
                stored[obj.key] = api.create(obj)
            elif op == "relabel":
                obj = rng.choice(sorted(stored.values(), key=lambda o: o.key))
                labels = random_labels(rng)
                if rng.random() < 0.5:
                    obj.meta.labels = labels
                    api.update(obj)
                else:
                    api.patch(obj, lambda o: (o.meta.labels.clear(),
                                              o.meta.labels.update(labels)))
            elif op == "delete":
                obj = rng.choice(sorted(stored.values(), key=lambda o: o.key))
                # A bound pod is only marked terminating, and stays stored
                # until finalized however often it is deleted; anything
                # else is removed.
                api.delete(obj)
                if not obj.terminating:
                    del stored[obj.key]
            else:
                terminating = [p for p in pods if p.terminating]
                if terminating:
                    obj = rng.choice(terminating)
                    api.finalize_delete(obj)
                    del stored[obj.key]
            assert api.object_count() == len(stored)
            for kind in ("Pod", "ConfigMap", "Node"):
                assert api.object_count(kind) == sum(
                    1 for o in stored.values() if o.kind == kind)
                for namespace in ("default", "other", None):
                    for selector in (None, *random_selectors(rng)):
                        assert (api.list(kind, namespace=namespace, selector=selector)
                                == brute_force_list(stored, kind, namespace, selector))
        engine.run()

    def test_relabel_moves_the_object_between_buckets(self, api):
        pod = api.create(make_pod("p", labels={"role": "launcher"}))
        api.patch(pod, lambda p: p.meta.labels.update(role="worker"))
        assert api.list("Pod", selector=LabelSelector.of(role="launcher")) == []
        assert api.list("Pod", selector=LabelSelector.of(role="worker")) == [pod]

    def test_finalized_object_leaves_every_bucket(self, api):
        pod = make_pod("p", labels={"role": "worker"})
        pod.status.node_name = "node-0"
        api.create(pod)
        api.delete(pod)  # graceful: still listed while terminating
        assert api.list("Pod", selector=LabelSelector.of(role="worker")) == [pod]
        api.finalize_delete(pod)
        assert api.list("Pod", selector=LabelSelector.of(role="worker")) == []
        assert api.object_count("Pod") == 0
        with pytest.raises(NotFoundError):
            api.finalize_delete(pod)


#: Every selector class a selector list can take: empty, each one-pair and
#: two-pair selector over the label universe, and two that match nothing
#: (an unknown value, and a known pair with one no pod carries).
PROPERTY_SELECTORS = (
    LabelSelector(),
    *(LabelSelector.of(**{key: value})
      for key, values in sorted(LABEL_VALUES.items()) for value in values),
    *(LabelSelector.of(app=app, role=role)
      for app in LABEL_VALUES["app"] for role in LABEL_VALUES["role"]),
    LabelSelector.of(app="none"),
    LabelSelector.of(role="worker", missing="label"),
)

label_sets = st.builds(
    lambda app, role, tier: {key: value for key, value in
                             (("app", app), ("role", role), ("tier", tier))
                             if value is not None},
    st.sampled_from((None, *LABEL_VALUES["app"])),
    st.sampled_from((None, *LABEL_VALUES["role"])),
    st.sampled_from((None, *LABEL_VALUES["tier"])),
)

api_ops = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.sampled_from(("default", "other")),
                  st.integers(0, 5), label_sets, st.booleans()),
        st.tuples(st.just("relabel"), st.integers(0, 63), label_sets),
        st.tuples(st.just("delete"), st.integers(0, 63)),
    ),
    max_size=30,
)


class TestSelectorListProperty:
    """A selector ``list`` answers from the label index alone; it must
    equal a full scan that runs ``selector.matches`` over every stored
    object, whatever sequence of creates, label edits and deletes built
    the store."""

    @settings(max_examples=150, deadline=None)
    @given(api_ops)
    def test_selector_list_equals_a_full_scan(self, ops):
        api = ApiServer(Engine())
        stored = {}  # key -> object, the test's own record of the store
        for op, *args in ops:
            if op == "create":
                namespace, index, labels, bound = args
                pod = Pod(f"p{index}", PodSpec(), namespace=namespace,
                          labels=labels)
                if pod.key in stored:
                    continue
                if bound:
                    pod.status.node_name = "node-0"  # graceful delete
                stored[pod.key] = api.create(pod)
            elif not stored:
                continue
            else:
                pod = sorted(stored.values(), key=lambda o: o.key)[
                    args[0] % len(stored)]
                if op == "relabel":
                    pod.meta.labels = dict(args[1])
                    api.update(pod)
                else:
                    api.delete(pod)  # a bound pod stays until finalized
                    if not pod.terminating:
                        del stored[pod.key]
            for namespace in ("default", "other", None):
                for selector in PROPERTY_SELECTORS:
                    assert (api.list("Pod", namespace=namespace, selector=selector)
                            == brute_force_list(stored, "Pod", namespace, selector))


class TestWatch:
    def test_watch_receives_lifecycle_events(self, engine, api):
        events = []
        api.watch(lambda e: events.append((e.type, e.object.name)), kind="Pod")
        pod = api.create(make_pod("p"))
        api.update(pod)
        api.delete(pod)
        engine.run()
        assert events == [
            (EventType.ADDED, "p"),
            (EventType.MODIFIED, "p"),
            (EventType.DELETED, "p"),
        ]

    def test_watch_replay_of_existing_objects(self, engine, api):
        api.create(make_pod("old"))
        engine.run()
        events = []
        api.watch(lambda e: events.append((e.type, e.object.name)), kind="Pod")
        engine.run()
        assert events == [(EventType.ADDED, "old")]

    def test_watch_without_replay(self, engine, api):
        api.create(make_pod("old"))
        engine.run()
        events = []
        api.watch(lambda e: events.append(e), kind="Pod", replay=False)
        engine.run()
        assert events == []

    def test_watch_kind_filter(self, engine, api):
        events = []
        api.watch(lambda e: events.append(e.object.kind), kind="ConfigMap")
        api.create(make_pod("p"))
        api.create(ConfigMap("cm"))
        engine.run()
        assert events == ["ConfigMap"]

    def test_watch_delivery_is_asynchronous(self, engine, api):
        seen = []
        api.watch(lambda e: seen.append(e), kind="Pod")
        api.create(make_pod("p"))
        assert seen == []  # nothing delivered synchronously
        engine.run()
        assert len(seen) == 1

    def test_stopped_watch_gets_nothing(self, engine, api):
        seen = []
        watch = api.watch(lambda e: seen.append(e), kind="Pod")
        watch.stop()
        api.create(make_pod("p"))
        engine.run()
        assert seen == []

    def test_stopped_watch_drops_its_handler(self, engine, api):
        class Subscriber:
            def on_event(self, event):
                pass

        subscriber = Subscriber()
        alive = weakref.ref(subscriber)
        watch = api.watch(subscriber.on_event, kind="Pod")
        watch.stop()
        del subscriber
        assert watch.handler is None and alive() is None

    def test_namespace_filter(self, engine, api):
        events = []
        api.watch(lambda e: events.append(e.object.name), kind="Pod", namespace="other")
        api.create(Pod("p-default", PodSpec()))
        api.create(Pod("p-other", PodSpec(), namespace="other"))
        engine.run()
        assert events == ["p-other"]


class TestWatchHub:
    """The hub's per-kind subscription cache keeps the order contract."""

    @pytest.fixture
    def hub(self, engine):
        return WatchHub(engine)

    @staticmethod
    def recorder(log, tag):
        return lambda event: log.append((tag, event.object.kind, event.object.name))

    def test_order_merges_kind_and_all_kind_watches_by_subscription(self, engine, hub):
        log = []
        hub.subscribe(self.recorder(log, "pod-1"), kind="Pod")
        hub.subscribe(self.recorder(log, "all-1"))
        hub.subscribe(self.recorder(log, "cm-1"), kind="ConfigMap")
        # Warm the Pod cache, then subscribe more: they must join it in order.
        hub.publish(WatchEvent(EventType.ADDED, make_pod("p0")))
        hub.subscribe(self.recorder(log, "pod-2"), kind="Pod")
        hub.subscribe(self.recorder(log, "all-2"))
        hub.publish(WatchEvent(EventType.ADDED, make_pod("p1")))
        hub.publish(WatchEvent(EventType.ADDED, ConfigMap("c1")))
        engine.run()
        assert log == [
            ("pod-1", "Pod", "p0"), ("all-1", "Pod", "p0"),
            ("pod-1", "Pod", "p1"), ("all-1", "Pod", "p1"),
            ("pod-2", "Pod", "p1"), ("all-2", "Pod", "p1"),
            ("all-1", "ConfigMap", "c1"), ("cm-1", "ConfigMap", "c1"),
            ("all-2", "ConfigMap", "c1"),
        ]

    def test_watch_subscribed_after_a_publish_misses_it(self, engine, hub):
        log = []
        hub.subscribe(self.recorder(log, "early"), kind="Pod")
        hub.publish(WatchEvent(EventType.ADDED, make_pod("before")))
        late = hub.subscribe(self.recorder(log, "late"), kind="Pod")
        hub.subscribe(self.recorder(log, "late-all"))
        hub.publish(WatchEvent(EventType.ADDED, make_pod("after")))
        engine.run()
        assert log == [("early", "Pod", "before"), ("early", "Pod", "after"),
                       ("late", "Pod", "after"), ("late-all", "Pod", "after")]
        assert late.delivered == 1

    def test_handler_stopping_a_later_watch_drops_its_queued_event(self, engine, hub):
        log = []
        watches = {}

        def stopper(event):
            log.append(("stopper", event.object.name))
            watches["victim"].stop()

        hub.subscribe(stopper, kind="Pod")
        watches["victim"] = hub.subscribe(self.recorder(log, "victim"), kind="Pod")
        hub.subscribe(self.recorder(log, "all"))
        hub.publish(WatchEvent(EventType.ADDED, make_pod("p0")))
        engine.run()
        # The victim's dispatch was queued before it was stopped.
        assert log == [("stopper", "p0"), ("all", "Pod", "p0")]
        assert watches["victim"].delivered == 0
        # The next publish prunes the stopped watch; the rest keep order.
        hub.subscribe(self.recorder(log, "new"), kind="Pod")
        hub.publish(WatchEvent(EventType.MODIFIED, make_pod("p0")))
        engine.run()
        assert log[2:] == [("stopper", "p0"), ("all", "Pod", "p0"),
                           ("new", "Pod", "p0")]
        assert watches["victim"] not in hub._watches
        assert all(watches["victim"] not in cached for cached in hub._by_kind.values())

    def test_namespace_filter_on_kind_and_all_kind_watches(self, engine, hub):
        log = []
        hub.subscribe(self.recorder(log, "pod-other"), kind="Pod", namespace="other")
        hub.subscribe(self.recorder(log, "all-other"), namespace="other")
        hub.subscribe(self.recorder(log, "all"))
        hub.publish(WatchEvent(EventType.ADDED, Pod("p-default", PodSpec())))
        hub.publish(WatchEvent(EventType.ADDED, Pod("p-other", PodSpec(), namespace="other")))
        hub.publish(WatchEvent(EventType.ADDED, ConfigMap("c-other", namespace="other")))
        engine.run()
        assert log == [
            ("all", "Pod", "p-default"),
            ("pod-other", "Pod", "p-other"), ("all-other", "Pod", "p-other"),
            ("all", "Pod", "p-other"),
            ("all-other", "ConfigMap", "c-other"), ("all", "ConfigMap", "c-other"),
        ]

    @staticmethod
    def bound_pod(name, node, labels=None, namespace="default"):
        pod = Pod(name, PodSpec(), namespace=namespace, labels=labels)
        pod.status.node_name = node
        return pod

    def test_node_selector_receives_its_nodes_pods_only(self, engine, hub):
        log = []
        n1 = hub.subscribe(self.recorder(log, "n1"), kind="Pod", node_name="n1")
        hub.subscribe(self.recorder(log, "n2"), kind="Pod", node_name="n2")
        hub.publish(WatchEvent(EventType.ADDED, make_pod("unbound")))
        hub.publish(WatchEvent(EventType.ADDED, self.bound_pod("a", "n1")))
        hub.publish(WatchEvent(EventType.ADDED, self.bound_pod("b", "n2")))
        hub.publish(WatchEvent(EventType.ADDED, self.bound_pod("c", "n3")))
        engine.run()
        assert log == [("n1", "Pod", "a"), ("n2", "Pod", "b")]
        assert n1.delivered == 1

    def test_bind_reaches_the_nodes_watch(self, engine, hub):
        log = []
        hub.subscribe(self.recorder(log, "n1"), kind="Pod", node_name="n1")
        hub.subscribe(self.recorder(log, "n2"), kind="Pod", node_name="n2")
        pod = make_pod("p")
        hub.publish(WatchEvent(EventType.ADDED, pod))
        engine.run()
        assert log == []
        pod.status.node_name = "n1"  # what KubeScheduler's bind patches
        hub.publish(WatchEvent(EventType.MODIFIED, pod))
        hub.publish(WatchEvent(EventType.DELETED, pod))
        engine.run()
        assert log == [("n1", "Pod", "p"), ("n1", "Pod", "p")]

    def test_label_selector_needs_every_pair(self, engine, hub):
        log = []
        selector = LabelSelector.of(job="a", role="worker")
        watch = hub.subscribe(self.recorder(log, "sel"), kind="Pod", selector=selector)
        for name, labels in [("worker-a", {"job": "a", "role": "worker"}),
                             ("launcher-a", {"job": "a", "role": "launcher"}),
                             ("worker-b", {"job": "b", "role": "worker"}),
                             ("no-role", {"job": "a"}),
                             ("role-only", {"role": "worker"})]:
            hub.publish(WatchEvent(EventType.ADDED, make_pod(name, labels)))
        engine.run()
        assert log == [("sel", "Pod", "worker-a")]
        assert watch.matches(make_pod("x", {"job": "a", "role": "worker", "extra": "1"}))

    def test_empty_label_selector_takes_everything(self, engine, hub):
        log = []
        hub.subscribe(self.recorder(log, "empty"), kind="Pod", selector=LabelSelector())
        hub.publish(WatchEvent(EventType.ADDED, make_pod("p", {"job": "a"})))
        engine.run()
        assert log == [("empty", "Pod", "p")]

    def test_replay_honours_both_selectors(self, engine, api):
        labels = {"job": "a", "role": "worker"}
        for name, node, pod_labels in [("a-0", "n1", labels), ("a-1", "n2", labels),
                                       ("b-0", "n1", {"job": "b", "role": "worker"}),
                                       ("free", None, labels)]:
            api.create(self.bound_pod(name, node, pod_labels))
        engine.run()
        seen = {"node": [], "label": [], "both": []}
        selector = LabelSelector.of(**labels)
        api.watch(lambda e: seen["node"].append(e.object.name), kind="Pod",
                  node_name="n1")
        api.watch(lambda e: seen["label"].append(e.object.name), kind="Pod",
                  selector=selector)
        api.watch(lambda e: seen["both"].append(e.object.name), kind=None,
                  node_name="n1", selector=selector)
        engine.run()
        assert seen == {"node": ["a-0", "b-0"], "label": ["a-0", "a-1", "free"],
                        "both": ["a-0"]}

    def test_same_time_deliveries_keep_subscription_order(self, engine, hub):
        log = []
        labels = {"job": "a", "role": "worker"}
        hub.subscribe(self.recorder(log, "sel-1"), kind="Pod",
                      selector=LabelSelector.of(**labels))
        hub.subscribe(self.recorder(log, "plain-1"), kind="Pod")
        hub.subscribe(self.recorder(log, "node-1"), kind="Pod", node_name="n1")
        hub.subscribe(self.recorder(log, "all-1"))
        hub.subscribe(self.recorder(log, "other-node"), kind="Pod", node_name="n2")
        # Warm the Pod cache, then subscribe more: they must join in order.
        hub.publish(WatchEvent(EventType.ADDED, self.bound_pod("p0", "n1", labels)))
        hub.subscribe(self.recorder(log, "node-2"), kind="Pod", node_name="n1")
        hub.subscribe(self.recorder(log, "plain-2"), kind="Pod")
        hub.subscribe(self.recorder(log, "all-sel"), selector=LabelSelector.of(job="a"))
        hub.publish(WatchEvent(EventType.MODIFIED, self.bound_pod("p1", "n1", labels)))
        engine.run()
        assert [tag for tag, _, name in log if name == "p0"] == [
            "sel-1", "plain-1", "node-1", "all-1"]
        assert [tag for tag, _, name in log if name == "p1"] == [
            "sel-1", "plain-1", "node-1", "all-1", "node-2", "plain-2", "all-sel"]
        assert [name for _, _, name in log] == ["p0"] * 4 + ["p1"] * 7

    def test_stopping_a_selected_watch_drops_queued_events_and_unindexes_it(
        self, engine, hub
    ):
        log = []
        watches = {}

        def stopper(event):
            log.append(("stopper", event.object.name))
            watches["node"].stop()
            watches["label"].stop()

        hub.subscribe(stopper, kind="Pod")
        watches["node"] = hub.subscribe(self.recorder(log, "node"), kind="Pod",
                                        node_name="n1")
        watches["label"] = hub.subscribe(self.recorder(log, "label"),
                                         selector=LabelSelector.of(job="a"))
        pod = self.bound_pod("p0", "n1", {"job": "a"})
        hub.publish(WatchEvent(EventType.ADDED, pod))
        hub.publish(WatchEvent(EventType.ADDED, ConfigMap("c0")))
        engine.run()
        # Both dispatches were queued before the handler stopped them.
        assert log == [("stopper", "p0")]
        assert watches["node"].delivered == watches["label"].delivered == 0
        for watch in watches.values():
            assert watch not in hub._watches
            assert all(watch not in index for index in hub._by_kind.values())
        assert all(not index.by_node and not index.by_label
                   for index in hub._by_kind.values())
        hub.publish(WatchEvent(EventType.MODIFIED, pod))
        engine.run()
        assert log == [("stopper", "p0"), ("stopper", "p0")]
