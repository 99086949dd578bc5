"""Obs-test hygiene: isolate all process-global obs state per test."""

from __future__ import annotations

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Run each test against fresh tracer/registry/events state.

    The trace-id counter is also restored, so tests that mint ids stay
    deterministic regardless of execution order.
    """
    previous_tracer = obs.get_tracer()
    previous_registry = obs.get_registry()
    previous_events = obs.get_event_log()
    obs.set_tracer(obs.Tracer(enabled=False))
    obs.set_registry(obs.MetricsRegistry())
    obs.set_event_log(obs.EventLog())
    obs.reset_trace_ids()
    yield
    obs.set_tracer(previous_tracer)
    obs.set_registry(previous_registry)
    obs.set_event_log(previous_events)
    obs.reset_trace_ids()
