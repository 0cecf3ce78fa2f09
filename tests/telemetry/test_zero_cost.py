"""The no-trace path must be truly zero-cost.

Every tracer call site in the engine is guarded by
``if tracer.enabled:`` so that a disabled run neither calls the tracer
nor builds the per-event ``args`` dicts.  The counting double below
fails the test on *any* call reaching a disabled tracer — a regression
here silently taxes every untraced simulation.

The registry has the same contract: counters read component state at
export and histograms are pushed only when telemetry is on, so after
construction an untraced run makes no registry call at all.
"""

from repro.harness.experiments import SCALE_PROFILES, run_oltp_experiment


class CountingNullTracer:
    """Duck-typed disabled tracer that records every call it receives."""

    enabled = False
    events = ()
    dropped = 0
    now = 0.0

    def __init__(self):
        self.calls = []

    def set_clock(self, clock):
        pass

    def instant(self, name, cat="event", track="main", args=None, ctx=None):
        self.calls.append(("instant", name))

    def complete(self, name, start, end, cat="span", track="main",
                 args=None, ctx=None):
        self.calls.append(("complete", name))

    def span(self, name, cat="span", track="main", args=None, ctx=None):
        self.calls.append(("span", name))
        raise AssertionError("span() called on a disabled tracer")

    def counter(self, name, values, track="counters"):
        self.calls.append(("counter", name))


class CountingNullInstrument:
    """Duck-typed null instrument (counter, gauge, histogram or family)
    that records every method called on it."""

    def __init__(self, calls, name):
        self._calls = calls
        self._name = name

    def __getattr__(self, method):
        def record(*args, **kwargs):
            self._calls.append((self._name, method))
            return self
        return record


class CountingNullRegistry:
    """Disabled registry whose factories and instruments record calls."""

    enabled = False

    def __init__(self):
        self.calls = []

    def _factory(self, name, help_text="", labelnames=()):
        self.calls.append((name, "register"))
        return CountingNullInstrument(self.calls, name)

    counter = gauge = histogram = _factory


#: Calls that bind an instrument to component state at construction.
REGISTRATION = {"register", "labels", "set_function", "collect"}


class CountingNullTelemetry:
    """Telemetry double: disabled, but tracer and registry tattle."""

    enabled = False

    def __init__(self):
        self.tracer = CountingNullTracer()
        self.registry = CountingNullRegistry()

    def set_clock(self, clock):
        pass


def test_untraced_run_never_calls_the_tracer():
    telemetry = CountingNullTelemetry()
    result = run_oltp_experiment(
        "tpcc", 20, "LC", duration=4.0, profile=SCALE_PROFILES["tiny"],
        nworkers=8, checkpoint_interval=1.0, telemetry=telemetry)
    # The run did real work (transactions committed, pages cleaned)...
    assert result.total_metric_txns > 0
    assert result.system.bp.stats.misses > 0
    # ...without a single tracer call: every call site honoured
    # `tracer.enabled` and skipped both the call and its args dict.
    assert telemetry.tracer.calls == []


def test_untraced_tac_and_faultless_paths_silent():
    telemetry = CountingNullTelemetry()
    run_oltp_experiment(
        "tpce", 2, "TAC", duration=4.0, profile=SCALE_PROFILES["tiny"],
        nworkers=8, telemetry=telemetry)
    assert telemetry.tracer.calls == []


def test_untraced_run_makes_no_registry_calls_after_construction():
    """Only registration reaches the registry, and how much of it does
    not depend on how long the run is: nothing is counted per event."""
    calls = {}
    for duration in (1.0, 4.0):
        telemetry = CountingNullTelemetry()
        result = run_oltp_experiment(
            "tpcc", 20, "LC", duration=duration,
            profile=SCALE_PROFILES["tiny"], nworkers=8,
            checkpoint_interval=1.0, telemetry=telemetry)
        assert result.total_metric_txns > 0
        calls[duration] = telemetry.registry.calls
    assert {method for _, method in calls[4.0]} <= REGISTRATION
    assert calls[1.0] == calls[4.0]
