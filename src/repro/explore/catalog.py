"""The scenario catalog: named, parameterized exploration workloads.

Every case study used to build its :class:`~repro.explore.scenario.Scenario`
ad hoc; at fleet scale the *workload library* is a first-class object —
drivers, examples and campaigns select scenarios by name and override
parameters, without importing each case-study stack by hand. A
:class:`ScenarioCatalog` maps names to registered factory callables;
:func:`load_builtin` imports the case-study scenario modules
(:mod:`repro.vr.scenarios`, :mod:`repro.faceauth.scenario`,
:mod:`repro.compression.scenario`, :mod:`repro.harvest.scenario`,
:mod:`repro.snnap.scenario`), each of which registers its entries into
the shared :data:`CATALOG` at import — the diversified workload library
spans both cost domains, every link class in :mod:`repro.hw.network`,
and the accelerator-silicon axes (PE geometry, DVFS operating points)
next to the paper's (cut point, platform) axes.

Factories accept a ``link`` parameter wherever a scenario crosses an
uplink; :func:`resolve_link` lets callers name links by the short keys
in :data:`LINKS` (``"25g"``, ``"400g"``, ``"backscatter"``) instead of
importing :mod:`repro.hw.network` themselves.

Quickstart::

    from repro.explore.catalog import load_builtin

    catalog = load_builtin()
    scenario = catalog.build("vr-fig10", target_fps=60.0)
    fleet = [catalog.build(name) for name in catalog.names()]
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.explore.scenario import DOMAINS, Scenario
from repro.hw.network import (
    ETHERNET_25G,
    ETHERNET_400G,
    LOW_POWER_RADIO,
    RF_BACKSCATTER,
    WIFI_CLASS,
    LinkModel,
)

#: Short names for the library's stock uplinks (:mod:`repro.hw.network`);
#: factory ``link=`` parameters accept these keys as well as LinkModel
#: instances.
LINKS: dict[str, LinkModel] = {
    "25g": ETHERNET_25G,
    "400g": ETHERNET_400G,
    "backscatter": RF_BACKSCATTER,
    "wifi": WIFI_CLASS,
    "low-power": LOW_POWER_RADIO,
}


def resolve_link(link: str | LinkModel) -> LinkModel:
    """A :class:`LinkModel` from a stock-link key or a model instance."""
    if isinstance(link, LinkModel):
        return link
    if isinstance(link, str):
        try:
            return LINKS[link]
        except KeyError:
            raise ConfigurationError(
                f"unknown link {link!r}; stock links are {sorted(LINKS)} "
                "(or pass a LinkModel)"
            ) from None
    raise ConfigurationError(
        f"link must be a LinkModel or one of {sorted(LINKS)}, got "
        f"{type(link).__name__}"
    )


@dataclass(frozen=True)
class CatalogEntry:
    """One registered workload: a named, parameterized Scenario factory.

    Parameters
    ----------
    name:
        Catalog key (kebab-case by convention: ``vr-fig10``).
    domain:
        The cost domain the factory's scenarios evaluate under
        (``'throughput'`` or ``'energy'``) — lets drivers select fleets
        per domain without building anything.
    summary:
        One line for listings and reports.
    factory:
        Keyword-parameterized callable returning a fresh
        :class:`Scenario`.
    defaults:
        Keyword arguments the catalog applies on :meth:`build` (caller
        overrides win) — lets one factory back several named entries.
    """

    name: str
    domain: str
    summary: str
    factory: Callable[..., Scenario]
    defaults: tuple[tuple[str, Any], ...] = ()

    def build(self, **params: Any) -> Scenario:
        merged = dict(self.defaults)
        merged.update(params)
        scenario = self.factory(**merged)
        if not isinstance(scenario, Scenario):
            raise ConfigurationError(
                f"catalog factory {self.name!r} returned "
                f"{type(scenario).__name__}, not a Scenario"
            )
        if scenario.domain != self.domain:
            raise ConfigurationError(
                f"catalog entry {self.name!r} is registered for the "
                f"{self.domain!r} domain but built a {scenario.domain!r} scenario"
            )
        return scenario


@dataclass(frozen=True)
class FleetSpec:
    """A compact description of a dedup-heavy scenario fleet.

    The cross product *pipeline mix x link grid x pass-rate variants*
    that :meth:`ScenarioCatalog.build_fleet` expands into a
    campaign-legal scenario list: every named entry is built once per
    link in the grid (``@<link>``-suffixed names, the
    :meth:`~ScenarioCatalog.build_at_links` shape), and every
    energy-domain entry additionally once per pass-rate variant and
    link (``#pr<i>``-suffixed names). A handful of entries, links and
    variants therefore expands to hundreds-to-thousands of scenarios —
    the fleet-scale stress shape the campaign dedup path is built for.

    Parameters
    ----------
    entries:
        Catalog entry names (the pipeline mix).
    links:
        Stock-link keys (:data:`LINKS`) or :class:`LinkModel`
        instances (the link grid). Every entry must accept a ``link``
        factory parameter.
    pass_rate_variants:
        Early-discard cascade variants for energy-domain entries
        (throughput entries ignore them — pass rates only apply to the
        energy domain). Each variant is either a uniform rate applied
        to every pipeline block, or an explicit ``{block name: rate}``
        table (unknown names are ignored by the cost model, so one
        table can span a pipeline mix). Variants *replace* the built
        scenario's pass table.
    overrides:
        Shared factory keyword arguments applied to every build
        (per-entry defaults still merge underneath them).
    """

    entries: Sequence[str]
    links: Sequence[str | LinkModel]
    pass_rate_variants: Sequence[float | Mapping[str, float]] = ()
    overrides: Mapping[str, Any] | None = None


@dataclass(frozen=True)
class JointFleetSpec:
    """A compact description of shared-uplink joint fleets.

    The cross product *member mix x shared-link axis* that
    :meth:`ScenarioCatalog.build_joint_fleets` expands into one
    :class:`~repro.explore.joint.JointFleetScenario` per shared link:
    every named entry is built once per link (``@<link>``-suffixed
    member names, the :meth:`~ScenarioCatalog.build_at_links` shape) so
    each member's solo rows price communication over the very uplink
    the fleet contends for.

    Parameters
    ----------
    entries:
        Catalog entry names (the member mix). Throughput-domain entries
        whose factories take a ``link`` parameter and build scenarios
        with a ``target_fps`` — the joint demand model needs both.
    shared_links:
        Stock-link keys (:data:`LINKS`) or :class:`LinkModel`
        instances: one joint fleet per shared uplink.
    capacity_bps:
        The shared capacity each fleet's aggregate demand must fit;
        None (the default) uses each link's own ``goodput_bps`` — the
        physically shared medium.
    overrides:
        Shared factory keyword arguments applied to every member build
        (per-entry defaults still merge underneath them).
    """

    entries: Sequence[str]
    shared_links: Sequence[str | LinkModel]
    capacity_bps: float | None = None
    overrides: Mapping[str, Any] | None = None


def _same_factory(existing: Callable[..., Any], candidate: Callable[..., Any]) -> bool:
    """Whether two registrations refer to the same source factory.

    Object identity covers the common case; falling back to (module,
    qualname) keeps ``importlib.reload`` of a scenario module a no-op —
    a reload creates fresh function objects for the *same* definitions,
    which must re-register cleanly rather than conflict.
    """
    if existing is candidate:
        return True
    qualname = getattr(existing, "__qualname__", None)
    if qualname is None or "<lambda>" in qualname:
        # Every lambda in a module shares the qualname "<lambda>" — two
        # different anonymous factories must still collide loudly.
        return False
    return qualname == getattr(candidate, "__qualname__", object()) and getattr(
        existing, "__module__", None
    ) == getattr(candidate, "__module__", object())


class ScenarioCatalog:
    """A registry of named scenario factories."""

    def __init__(self) -> None:
        self._entries: dict[str, CatalogEntry] = {}

    def register(
        self,
        name: str,
        domain: str,
        summary: str,
        defaults: Mapping[str, Any] | None = None,
    ) -> Callable[[Callable[..., Scenario]], Callable[..., Scenario]]:
        """Decorator registering a factory under ``name``.

        Re-registering the *same* factory under the same name replaces
        the entry (repeated ``load_builtin()`` calls are no-ops; module
        reloads re-register their fresh function objects cleanly);
        registering a *different* factory under a taken name raises.
        """
        if domain not in DOMAINS:
            raise ConfigurationError(
                f"domain must be one of {DOMAINS}, got {domain!r}"
            )

        def decorate(factory: Callable[..., Scenario]) -> Callable[..., Scenario]:
            entry = CatalogEntry(
                name=name,
                domain=domain,
                summary=summary,
                factory=factory,
                defaults=tuple(sorted((defaults or {}).items())),
            )
            existing = self._entries.get(name)
            if existing is not None:
                same_metadata = (existing.domain, existing.summary, existing.defaults) == (
                    entry.domain,
                    entry.summary,
                    entry.defaults,
                )
                # A true re-registration (reload, repeated load_builtin)
                # re-runs the decorator with identical factory AND
                # metadata; anything else — a copy-pasted variant that
                # forgot to change the name, a different factory — must
                # collide loudly, never silently replace a workload.
                if not (_same_factory(existing.factory, factory) and same_metadata):
                    raise ConfigurationError(
                        f"catalog name {name!r} already registered "
                        f"(by {existing.factory!r})"
                    )
            self._entries[name] = entry
            return factory

        return decorate

    def get(self, name: str) -> CatalogEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"no catalog scenario named {name!r}; available: {self.names()}"
            ) from None

    def build(self, name: str, /, **params: Any) -> Scenario:
        """A fresh :class:`Scenario` from the named entry; ``params``
        override the entry's registered defaults. The entry name is
        positional-only so factories may themselves take a ``name``
        parameter (scenario-label overrides)."""
        return self.get(name).build(**params)

    def names(self, domain: str | None = None) -> list[str]:
        """Registered names, sorted; optionally one domain only."""
        if domain is not None and domain not in DOMAINS:
            raise ConfigurationError(
                f"domain must be one of {DOMAINS}, got {domain!r}"
            )
        return sorted(
            name
            for name, entry in self._entries.items()
            if domain is None or entry.domain == domain
        )

    def entries(self) -> list[CatalogEntry]:
        """All entries, sorted by name."""
        return [self._entries[name] for name in self.names()]

    def build_all(
        self, domain: str | None = None, **params: Any
    ) -> list[Scenario]:
        """One fresh scenario per entry (optionally one domain) — the
        ready-made fleet for a :class:`~repro.explore.campaign.Campaign`."""
        return [self.build(name, **params) for name in self.names(domain)]

    def build_at_links(
        self, name: str, /, links: Sequence[str | LinkModel], **params: Any
    ) -> list[Scenario]:
        """The same catalog workload at several uplinks — the
        *dedup-heavy* fleet shape: one pipeline and platform axis, one
        scenario per link tier.

        The entry's factory must take a ``link`` parameter (every
        builtin entry that crosses an uplink does). Scenario names get
        an ``@<link>`` suffix so the fleet is campaign-legal (campaign
        scenario names must be unique); with
        ``Campaign(..., run(dedup=True))`` such a fleet evaluates its
        compute-side costs once, not once per link.
        """
        if not links:
            raise ConfigurationError("build_at_links needs at least one link")
        fleet = []
        for link in links:
            resolved = resolve_link(link)
            scenario = self.build(name, link=resolved, **params)
            suffix = f"@{resolved.name}"
            if not scenario.name.endswith(suffix):
                scenario = replace(scenario, name=scenario.name + suffix)
            fleet.append(scenario)
        names = [scenario.name for scenario in fleet]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"links {[resolve_link(link).name for link in links]} produce "
                f"duplicate scenario names {names}; pass distinct links"
            )
        return fleet

    def build_fleet(self, spec: FleetSpec) -> list[Scenario]:
        """Expand a :class:`FleetSpec` into a campaign-legal fleet.

        Every entry in the spec's pipeline mix is built across the
        whole link grid (names suffixed ``@<link>``); energy-domain
        entries are additionally rebuilt per pass-rate variant
        (``#pr<i>`` suffix, counted from 1). Scenario names are
        guaranteed unique across the expansion, so the list drops
        straight into a :class:`~repro.explore.campaign.Campaign`.

        Each (entry, variant) cell is one dedup group across the link
        grid: pass rates are part of
        :func:`~repro.explore.campaign.scenario_compute_key`, so with
        ``dedup=True`` the campaign evaluates compute-side states once
        per cell, never once per link.
        """
        if not spec.entries:
            raise ConfigurationError("FleetSpec needs at least one entry")
        overrides = dict(spec.overrides or {})
        fleet: list[Scenario] = []
        for name in spec.entries:
            entry = self.get(name)
            fleet.extend(self.build_at_links(name, spec.links, **overrides))
            if entry.domain != "energy" or not spec.pass_rate_variants:
                continue
            for index, variant in enumerate(spec.pass_rate_variants, start=1):
                for scenario in self.build_at_links(name, spec.links, **overrides):
                    if scenario.model is not None:
                        raise ConfigurationError(
                            f"catalog entry {name!r} builds a prebuilt-model "
                            "scenario; pass-rate variants would not reach "
                            "the model — drop the variants or the entry"
                        )
                    if isinstance(variant, (int, float)):
                        rates = {
                            block.name: float(variant)
                            for block in scenario.pipeline.blocks
                        }
                    else:
                        rates = dict(variant)
                    fleet.append(
                        replace(
                            scenario,
                            name=f"{scenario.name}#pr{index}",
                            pass_rates=rates,
                        )
                    )
        names = [scenario.name for scenario in fleet]
        if len(set(names)) != len(names):
            seen: set[str] = set()
            duplicates = sorted(
                {name for name in names if name in seen or seen.add(name)}
            )
            raise ConfigurationError(
                f"fleet spec expands to duplicate scenario names "
                f"{duplicates}; entries and links must be distinct"
            )
        return fleet

    def build_joint_fleets(self, spec: JointFleetSpec) -> list:
        """Expand a :class:`JointFleetSpec` into joint fleets.

        One :class:`~repro.explore.joint.JointFleetScenario` per shared
        link, named ``joint@<link>``, its members built *at that link*
        (``@<link>``-suffixed names via :meth:`build_at_links`, so the
        member list is campaign-legal and solo-comparable). The fleet
        capacity defaults to the shared link's ``goodput_bps``.
        Non-throughput entries are rejected here, with the entry named,
        rather than failing later inside the fleet's own validation.
        """
        from repro.explore.joint import JointFleetScenario

        if not spec.entries:
            raise ConfigurationError("JointFleetSpec needs at least one entry")
        if not spec.shared_links:
            raise ConfigurationError(
                "JointFleetSpec needs at least one shared link"
            )
        for name in spec.entries:
            entry = self.get(name)
            if entry.domain != "throughput":
                raise ConfigurationError(
                    f"joint fleets couple members through sustained "
                    f"transmit rates; entry {name!r} is "
                    f"{entry.domain}-domain — pass throughput entries"
                )
        overrides = dict(spec.overrides or {})
        fleets = []
        for link in spec.shared_links:
            resolved = resolve_link(link)
            members: list[Scenario] = []
            for name in spec.entries:
                members.extend(
                    self.build_at_links(name, [resolved], **overrides)
                )
            capacity = (
                resolved.goodput_bps
                if spec.capacity_bps is None
                else spec.capacity_bps
            )
            fleets.append(
                JointFleetScenario(
                    name=f"joint@{resolved.name}",
                    members=tuple(members),
                    capacity_bps=capacity,
                )
            )
        names = [fleet.name for fleet in fleets]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"shared links produce duplicate fleet names {names}; "
                "pass distinct links"
            )
        return fleets

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CatalogEntry]:
        return iter(self.entries())


#: The shared default catalog the case-study modules register into.
CATALOG = ScenarioCatalog()

#: Register into the default catalog (the decorator the case-study
#: scenario modules use).
register_scenario = CATALOG.register


def load_builtin() -> ScenarioCatalog:
    """The default catalog with every built-in workload registered.

    Imports the case-study scenario modules for their registration side
    effects (idempotent) and returns :data:`CATALOG`.
    """
    import repro.compression.scenario  # noqa: F401
    import repro.faceauth.scenario  # noqa: F401
    import repro.harvest.scenario  # noqa: F401
    import repro.snnap.scenario  # noqa: F401
    import repro.vr.scenarios  # noqa: F401

    return CATALOG
