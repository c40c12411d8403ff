"""The pluggable scheduler registry.

The paper evaluates exactly four policies; this module opens that space.
Policies register by name — via decorator, programmatic :meth:`
SchedulerRegistry.register`, or ``repro.policies`` entry points from
third-party packages — and every consumer (CLI, schedsim, cloud sweeps,
benches) resolves them through one surface::

    from repro.scheduling.policies import elastic_variant
    from repro.scheduling.registry import REGISTRY

    elastic_variant("sjf", description="shortest job first",
                    priority=StaticPriority(...))

    config = REGISTRY.resolve("sjf", rescale_gap=60.0)

A *factory* takes keyword overrides and returns a
:class:`~repro.scheduling.policy.PolicyConfig` whose ``name`` matches the
registered name; :meth:`SchedulerRegistry.resolve` refuses anything
else.  :func:`~repro.scheduling.policies.elastic_variant` registers the
common case, the elastic algorithm with some fields fixed, and a policy
with keywords of its own registers its factory with
:meth:`SchedulerRegistry.register` (directly or as a decorator).

Third-party discovery uses the ``repro.policies`` entry-point group: the
loaded object is either a module/object exposing
``register_policies(registry)`` or a factory registered under the entry
point's own name.  Discovery is lazy — triggered by the first unknown
name or the first listing — so importing :mod:`repro.scheduling` never
pays for ``importlib.metadata``.

Cache integrity: :meth:`SchedulerRegistry.external_salt` hashes the
source of every factory living outside the ``repro`` package, and
:func:`repro.schedsim.cache.code_salt`'s consumers append it — so trial
results cached under an external policy are invalidated when that
policy's code changes, exactly like in-tree code edits.
"""

from __future__ import annotations

import hashlib
import inspect
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SchedulingError
from .policy import PolicyConfig

__all__ = [
    "PolicySpec",
    "SchedulerRegistry",
    "UnknownPolicyError",
    "PolicyRegistrationError",
    "REGISTRY",
    "register",
    "resolve",
    "list_policies",
    "describe",
]

#: Entry-point group third-party packages use to ship policies.
ENTRY_POINT_GROUP = "repro.policies"


class UnknownPolicyError(SchedulingError, ValueError):
    """Resolution failed: no policy registered under that name.

    Also a :class:`ValueError`: an unknown name is a bad argument value,
    the contract callers catching ``ValueError`` rely on.
    """


class PolicyRegistrationError(SchedulingError, ValueError):
    """Registration rejected (duplicate name, bad factory, bad name)."""


@dataclass(frozen=True)
class PolicySpec:
    """One registered policy: the factory plus its introspection card."""

    name: str
    factory: Callable[..., PolicyConfig]
    description: str = ""
    tags: Tuple[str, ...] = ()
    #: True for the four policies of the paper's evaluation (§4.3).
    paper: bool = False
    #: Where the registration came from ("builtin", "entry-point", ...).
    source: str = "builtin"


class SchedulerRegistry:
    """Name → :class:`PolicySpec` mapping with entry-point discovery."""

    def __init__(self):
        self._specs: Dict[str, PolicySpec] = {}
        self._entry_points_loaded = False

    # -- registration --------------------------------------------------

    def register(
        self,
        name: str,
        factory: Optional[Callable[..., PolicyConfig]] = None,
        *,
        description: str = "",
        tags: Tuple[str, ...] = (),
        paper: bool = False,
        source: str = "builtin",
        replace: bool = False,
    ):
        """Register ``factory`` under ``name``.

        Usable programmatically (``register(name, factory)``) or as a
        decorator (``@register(name, description=...)``).  Duplicate
        names are an error unless ``replace=True``.
        """
        if not isinstance(name, str) or not name:
            raise PolicyRegistrationError(
                f"policy name must be a non-empty string, got {name!r}"
            )

        def _do_register(func):
            if not callable(func):
                raise PolicyRegistrationError(
                    f"policy {name!r}: factory must be callable, got {func!r}"
                )
            if name in self._specs and not replace:
                raise PolicyRegistrationError(
                    f"policy {name!r} is already registered "
                    f"(source: {self._specs[name].source}); "
                    f"pass replace=True to override"
                )
            self._specs[name] = PolicySpec(
                name=name,
                factory=func,
                description=description,
                tags=tuple(tags),
                paper=paper,
                source=source,
            )
            return func

        if factory is None:
            return _do_register  # decorator form
        return _do_register(factory)

    # -- resolution ----------------------------------------------------

    def resolve(self, name: str, **overrides) -> PolicyConfig:
        """Build the named policy's configuration with ``overrides``.

        The returned configuration must be a :class:`PolicyConfig`
        carrying the registered name — a factory that labels its output
        differently would silently corrupt every name-keyed consumer
        (metrics tables, sweep grids, trial-cache keys).
        """
        config = self.describe(name).factory(**overrides)
        if not isinstance(config, PolicyConfig):
            raise PolicyRegistrationError(
                f"policy {name!r}: factory returned {type(config).__name__}, "
                f"not a PolicyConfig"
            )
        if config.name != name:
            raise PolicyRegistrationError(
                f"policy {name!r}: factory returned a config named "
                f"{config.name!r}"
            )
        return config

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    # -- introspection -------------------------------------------------

    def list_policies(self) -> List[str]:
        """All registered names, paper policies first, then by
        registration order (includes entry-point discoveries)."""
        self.load_entry_points()
        names = list(self._specs)
        return sorted(names, key=lambda n: (not self._specs[n].paper,))

    def paper_policies(self) -> Tuple[str, ...]:
        """The four policies of the paper's evaluation, in its order."""
        return tuple(n for n, s in self._specs.items() if s.paper)

    def describe(self, name: str) -> PolicySpec:
        spec = self._specs.get(name)
        if spec is None:
            # A third-party package may provide it: discover lazily.
            self.load_entry_points()
            spec = self._specs.get(name)
        if spec is None:
            raise UnknownPolicyError(
                f"unknown policy {name!r}; available: "
                f"{tuple(self.list_policies())}"
            )
        return spec

    # -- third-party discovery -----------------------------------------

    @staticmethod
    def _iter_entry_points():
        """The ``repro.policies`` entry points (monkeypatch point)."""
        from importlib import metadata

        try:
            return tuple(metadata.entry_points(group=ENTRY_POINT_GROUP))
        except Exception:  # pragma: no cover - importlib quirks
            return ()

    def load_entry_points(self, force: bool = False) -> int:
        """Discover third-party policies; returns how many registered.

        Each entry point loads to either an object exposing
        ``register_policies(registry)`` (full control: many policies,
        custom descriptions) or a plain factory registered under the
        entry point's own name.  A load failure or a name collision with
        an existing registration warns and skips — one broken plugin
        must not take down the paper's policies.
        """
        if self._entry_points_loaded and not force:
            return 0
        self._entry_points_loaded = True
        registered = 0
        for entry_point in self._iter_entry_points():
            try:
                loaded = entry_point.load()
                hook = getattr(loaded, "register_policies", None)
                if callable(hook):
                    hook(self)
                    registered += 1
                    continue
                if entry_point.name in self._specs:
                    warnings.warn(
                        f"entry point {entry_point.name!r} collides with an "
                        f"already-registered policy; skipping",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    continue
                self.register(
                    entry_point.name, loaded, source="entry-point",
                    description=(inspect.getdoc(loaded) or "").partition(
                        "\n"
                    )[0],
                )
                registered += 1
            except Exception as exc:  # noqa: BLE001 - plugin isolation
                warnings.warn(
                    f"failed to load policy entry point "
                    f"{getattr(entry_point, 'name', entry_point)!r}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return registered

    # -- cache integrity -----------------------------------------------

    def external_salt(self) -> str:
        """Hash of every factory registered from outside ``repro``.

        Empty when only in-tree policies are registered — in-tree code
        is already covered by :func:`repro.schedsim.cache.code_salt`'s
        source-tree walk, and returning ``""`` keeps existing cache keys
        valid for every user without plugins.
        """
        parts = []
        for name in sorted(self._specs):
            spec = self._specs[name]
            module = getattr(spec.factory, "__module__", "") or ""
            if module == "repro" or module.startswith("repro."):
                continue
            try:
                source = inspect.getsource(spec.factory)
            except (OSError, TypeError):
                source = repr(spec.factory)
            parts.append(f"{name}:{module}:{source}")
        if not parts:
            return ""
        return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:16]


#: The process-wide registry every consumer resolves against.
REGISTRY = SchedulerRegistry()


def register(name, factory=None, **kwargs):
    """Register on the process-wide :data:`REGISTRY` (decorator-friendly)."""
    return REGISTRY.register(name, factory, **kwargs)


def resolve(name: str, **overrides) -> PolicyConfig:
    """Resolve against the process-wide :data:`REGISTRY`."""
    return REGISTRY.resolve(name, **overrides)


def list_policies() -> List[str]:
    """Names on the process-wide :data:`REGISTRY`."""
    return REGISTRY.list_policies()


def describe(name: str) -> PolicySpec:
    """Introspection card from the process-wide :data:`REGISTRY`."""
    return REGISTRY.describe(name)
