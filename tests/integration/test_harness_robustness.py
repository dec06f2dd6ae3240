"""Failure-injection properties: the *simulator* must never fall over.

A fuzz-testing reproduction whose own harness crashes on weird input would
be untrustworthy.  These hypothesis properties throw adversarial garbage at
every public boundary -- adb shell lines, arbitrary intents, arbitrary log
records and text -- and assert the harness responds with modelled outcomes
(Java-style throwables, error results) rather than Python-level failures.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.logparse import parse_events, parse_lines
from repro.analysis.manifest import StudyCollector
from repro.android.component import ComponentKind
from repro.android.intent import Intent
from repro.android.jtypes import Throwable
from repro.android.log import Level, LogRecord
from repro.apps.catalog import build_wear_corpus
from repro.wear.device import WearDevice

# One shared device: hypothesis examples run fast against it, and shared
# state *is* the point (state accumulation must not break totality either).
_CORPUS = build_wear_corpus(seed=2018)
_WATCH = WearDevice("prop-watch")
_CORPUS.install(_WATCH)
_COMPONENTS = _WATCH.packages.all_components()

_TEXT = st.text(max_size=60)
_MAYBE_TEXT = st.one_of(st.none(), _TEXT)


def _extras(draw_values):
    return st.dictionaries(
        st.text(min_size=1, max_size=10), draw_values, max_size=4
    )


#: Any log record: level, pid, tag and message unconstrained.
arbitrary_records = st.builds(
    LogRecord,
    time_ms=st.floats(allow_nan=False, allow_infinity=False),
    pid=st.integers(),
    tid=st.integers(),
    level=st.sampled_from(Level),
    tag=_TEXT,
    message=st.text(max_size=120),
)

_EXTRA_VALUES = st.one_of(
    st.none(), st.text(max_size=20), st.integers(), st.floats(allow_nan=False), st.booleans()
)


@st.composite
def arbitrary_intents(draw):
    intent = Intent(draw(_MAYBE_TEXT))
    data = draw(_MAYBE_TEXT)
    if data is not None:
        intent.set_data_string(data)
    for key, value in draw(_extras(_EXTRA_VALUES)).items():
        intent.put_extra(key, value)
    index = draw(st.integers(min_value=0, max_value=len(_COMPONENTS) - 1))
    intent.set_component(_COMPONENTS[index].name)
    return intent


class TestDispatchTotality:
    @given(arbitrary_intents())
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_start_activity_only_raises_throwables(self, intent):
        info = _WATCH.packages.resolve_component(intent.component)
        try:
            if info is not None and info.kind == ComponentKind.SERVICE:
                _WATCH.activity_manager.start_service("com.qgj.wear", intent)
            else:
                _WATCH.activity_manager.start_activity("com.qgj.wear", intent)
        except Throwable:
            pass  # modelled Java-world failure: fine

    @given(arbitrary_intents())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_broadcast_only_raises_throwables(self, intent):
        intent.set_component(None)
        try:
            _WATCH.activity_manager.send_broadcast("com.qgj.wear", intent)
        except Throwable:
            pass


class TestAdbTotality:
    @given(st.text(max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_shell_never_raises(self, command):
        result = _WATCH.adb.shell(command)
        assert isinstance(result.exit_code, int)
        assert isinstance(result.output, str)

    @given(
        st.sampled_from(["input", "am", "pm"]),
        st.lists(st.text(min_size=1, max_size=15), max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_known_tools_with_garbage_args(self, tool, args):
        quoted = " ".join("'" + a.replace("'", "") + "'" for a in args)
        result = _WATCH.adb.shell(f"{tool} {quoted}")
        assert isinstance(result.exit_code, int)


class TestAnalysisTotality:
    @given(st.text(max_size=800))
    @settings(max_examples=80, deadline=None)
    def test_collector_fold_never_raises(self, text):
        collector = StudyCollector(_CORPUS.packages())
        collector.fold(parse_lines(text), "com.runmate.wear", "A")
        assert collector.segments_folded == 1

    @given(st.lists(arbitrary_records, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_collector_fold_never_raises_on_records(self, records):
        collector = StudyCollector(_CORPUS.packages())
        collector.fold(records, "com.runmate.wear", "A")
        assert collector.segments_folded == 1

    @given(st.lists(st.text(max_size=120), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_parser_on_shuffled_real_lines(self, noise):
        # Interleave real log lines with garbage: parser must survive and
        # still be a function of the text.
        real = _WATCH.adb.logcat().splitlines()[:20]
        merged = []
        for i, line in enumerate(real):
            merged.append(line)
            if i < len(noise):
                merged.append(noise[i])
        text = "\n".join(merged)
        assert parse_events(parse_lines(text)) == parse_events(parse_lines(text))


class TestSeverityInvariants:
    def test_app_severity_is_max_of_component_severities(self):
        """Lattice law: an app/campaign severity never understates its
        components' behaviour in the same segment."""
        from repro.analysis.manifest import Manifestation
        from repro.qgj.campaigns import Campaign
        from repro.qgj.fuzzer import FuzzConfig, FuzzerLibrary

        corpus = build_wear_corpus(seed=2018)
        watch = WearDevice("lattice-watch")
        corpus.install(watch)
        collector = StudyCollector(corpus.packages())
        fuzzer = FuzzerLibrary(watch)
        adb = watch.adb
        adb.logcat_clear()
        for package in ("com.motorola.omega.body", "com.cardiowatch.wear"):
            for campaign in Campaign:
                fuzzer.fuzz_app(package, campaign, FuzzConfig(
                    strides={Campaign.A: 12, Campaign.B: 1, Campaign.C: 2, Campaign.D: 1}
                ))
                collector.fold(adb.logcat_records(), package, campaign.value)
                adb.logcat_clear()
        for (package, campaign), severity in collector.app_campaign.items():
            component_max = max(
                (
                    record.manifestation()
                    for record in collector.component_records()
                    if record.package == package
                ),
                default=Manifestation.NO_EFFECT,
            )
            # App severity in one campaign can exceed any single component's
            # *final* state only via reboot windows; it must never exceed
            # the overall component max when that max is REBOOT.
            if component_max == Manifestation.REBOOT:
                assert severity <= component_max
