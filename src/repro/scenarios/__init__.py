"""Soft-error & variation scenario engine.

Sweeps circuits × variation corners × upset models × hardening
policies, with graceful degradation (typed FAILED entries, retries,
resumable memo) as a first-class contract.

Import discipline: :mod:`repro.scenarios.injectors` sits *below* the
simulators (both backends import its pure event-list transforms),
while :mod:`repro.scenarios.engine` sits *above* the flows, sim, and
harness layers.  Only the injector layer loads eagerly here; the
engine and fragility names resolve lazily (PEP 562) so that
``repro.sim -> injectors -> this package`` never re-enters the
half-initialized upper layers.
"""

from repro.scenarios.injectors import (
    MIN_DELAY_FACTOR,
    GlitchSpec,
    InjectionPlan,
    build_injection_plan,
    delay_corner_scale,
    glitch_events,
    latch_state_keys,
)

#: Lazily-resolved exports: name -> providing submodule.
_LAZY = {
    "FragilityEntry": "fragility",
    "FragilityReport": "fragility",
    "rank_fragility": "fragility",
    "select_hardened": "fragility",
    "CORNERS": "engine",
    "DEFAULT_CORNERS": "engine",
    "DEFAULT_POLICIES": "engine",
    "DEFAULT_UPSETS": "engine",
    "POLICIES": "engine",
    "UPSETS": "engine",
    "CornerSpec": "engine",
    "ScenarioGroup": "engine",
    "ScenarioReport": "engine",
    "UpsetSpec": "engine",
    "run_scenario_group": "engine",
    "run_scenarios": "engine",
    "scenario_seed": "engine",
}

__all__ = [
    "GlitchSpec",
    "InjectionPlan",
    "MIN_DELAY_FACTOR",
    "build_injection_plan",
    "delay_corner_scale",
    "glitch_events",
    "latch_state_keys",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    module = importlib.import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value
    return value
