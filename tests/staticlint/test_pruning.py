"""Static-assisted dynamic detection: certificate pruning in the detector.

Two properties: pruning must be *invisible* on detection quality (every
buggy benchmark reports exactly the same mapping issues with a
certificate as without), and *visible* in the accounting (clean
benchmarks with certified variables skip shadow blocks and per-access
VSM transitions, counted in ``cert_stats`` and telemetry).
"""

from repro.core.detector import Arbalest
from repro.core.registry import ShadowRegistry
from repro.dracc.registry import all_benchmarks, get
from repro.openmp.runtime import TargetRuntime
from repro.staticlint import dracc_certificates
from repro.telemetry import Telemetry
from tests.per_access import per_access


def _run(benchmark, certificate, telemetry=None):
    rt = TargetRuntime(n_devices=2)
    rt.machine.bus.telemetry = telemetry
    tool = Arbalest(certificate=certificate).attach(rt.machine)
    benchmark.run(rt)
    return tool


class TestShadowRegistrySkips:
    def test_certified_label_gets_no_block(self):
        reg = ShadowRegistry(certified=frozenset({"a"}))
        assert reg.create(0x1000, 64, label="a") is None
        assert reg.skipped_blocks == 1
        assert reg.skipped_bytes == 64
        assert len(reg) == 0

    def test_skipped_range_lookup(self):
        reg = ShadowRegistry(certified=frozenset({"a"}))
        reg.create(0x1000, 64, label="a")
        assert reg.skipped_range(0x1000) == (0x1000, 0x1040)
        assert reg.skipped_range(0x103F) == (0x1000, 0x1040)
        assert reg.skipped_range(0x1040) is None

    def test_drop_of_skipped_allocation(self):
        reg = ShadowRegistry(certified=frozenset({"a"}))
        reg.create(0x1000, 64, label="a")
        assert reg.drop(0x1000) is None
        assert reg.skipped_range(0x1000) is None

    def test_uncertified_labels_still_get_blocks(self):
        reg = ShadowRegistry(certified=frozenset({"a"}))
        block = reg.create(0x2000, 64, label="b")
        assert block is not None
        assert reg.find(0x2000) is block


class TestDetectionUnchanged:
    def test_buggy_benchmarks_report_identically_with_certificates(self):
        certs = dracc_certificates()
        for benchmark in all_benchmarks():
            baseline = _run(benchmark, None)
            pruned = _run(benchmark, certs[benchmark.name])
            key = lambda t: sorted(
                (f.kind.name, f.variable) for f in t.mapping_issue_findings()
            )
            assert key(pruned) == key(baseline), benchmark.name


class TestSkipAccounting:
    def test_clean_benchmark_skips_shadow_and_accesses(self):
        benchmark = get(1)  # clean, fully certified twin
        tool = _run(benchmark, dracc_certificates()[benchmark.name])
        stats = tool.cert_stats()
        assert stats["certified_variables"] > 0
        assert stats["shadow_blocks_skipped"] > 0
        assert stats["access_skips"] > 0
        assert not tool.findings

    def test_no_certificate_means_no_skips(self):
        benchmark = get(1)
        tool = _run(benchmark, None)
        stats = tool.cert_stats()
        assert stats["shadow_blocks_skipped"] == 0
        assert stats["access_skips"] == 0

    def test_empty_certificate_changes_nothing(self):
        from repro.staticlint import SafetyCertificate

        benchmark = get(22)  # buggy
        empty = SafetyCertificate("DRACC_OMP_022", frozenset())
        baseline = _run(benchmark, None)
        with_empty = _run(benchmark, empty)
        assert len(with_empty.findings) == len(baseline.findings)
        assert with_empty.cert_stats()["access_skips"] == 0


#: Overflow twins whose certificates carry a sub-variable SectionCert:
#: the variable has a real finding *outside* the certified element range,
#: so whole-variable pruning is off the table — section pruning is the
#: only skip available.
SECTION_CERT_BENCHMARKS = (23, 25, 28, 29, 30, 31)


class TestSectionCertificates:
    def test_overflow_twins_get_section_certs(self):
        certs = dracc_certificates()
        for number in SECTION_CERT_BENCHMARKS:
            cert = certs[get(number).name]
            assert cert.sections, get(number).name
            for section in cert.sections:
                # A sectioned variable is never also whole-certified.
                assert section.var not in cert.variables
                assert 0 <= section.lo < section.hi

    def test_findings_byte_identical_with_section_certs(self):
        # The differential-equivalence contract: sub-variable pruning must
        # not change a single finding — kind, variable, address, or size —
        # under batched or per-access delivery.
        certs = dracc_certificates()
        for number in SECTION_CERT_BENCHMARKS:
            benchmark = get(number)
            for tool_cls in (Arbalest, per_access(Arbalest)):
                key = lambda t: sorted(
                    (f.kind.name, f.variable, f.address, f.size)
                    for f in t.mapping_issue_findings()
                )
                rt = TargetRuntime(n_devices=2)
                baseline = tool_cls().attach(rt.machine)
                benchmark.run(rt)
                rt2 = TargetRuntime(n_devices=2)
                pruned = tool_cls(certificate=certs[benchmark.name]).attach(
                    rt2.machine
                )
                benchmark.run(rt2)
                assert key(pruned) == key(baseline), (benchmark.name, tool_cls)

    def test_section_skips_happen_at_sub_variable_granularity(self):
        # At least one benchmark must actually skip accesses through a
        # section grant (not a whole-variable one), under batched and
        # per-access delivery.
        certs = dracc_certificates()
        for tool_cls in (Arbalest, per_access(Arbalest)):
            skipped = []
            for number in SECTION_CERT_BENCHMARKS:
                benchmark = get(number)
                rt = TargetRuntime(n_devices=2)
                tool = tool_cls(certificate=certs[benchmark.name]).attach(
                    rt.machine
                )
                benchmark.run(rt)
                stats = tool.cert_stats()
                assert stats["section_certified_variables"] == 1
                assert stats["section_shadow_blocks"] == 1
                assert stats["section_certified_bytes"] > 0
                if stats["section_access_skips"] > 0:
                    skipped.append(number)
            assert skipped, tool_cls

    def test_no_certificate_means_no_section_accounting(self):
        tool = _run(get(23), None)
        stats = tool.cert_stats()
        assert stats["section_certified_variables"] == 0
        assert stats["section_shadow_blocks"] == 0
        assert stats["section_access_skips"] == 0


class TestSectionRegistry:
    def test_section_range_shrinks_inward_to_granules(self):
        # 64 elements of 8 bytes, certified [0, 32): the byte range is
        # already granule-aligned and records as-is.
        reg = ShadowRegistry(granule=8, sections={"a": (0, 32, 64)})
        reg.create(0x1000, 512, label="a")
        assert reg.section_for_base(0x1000) == (0x1000, 0x1100)
        assert reg.section_blocks == 1
        assert reg.section_bytes == 256

    def test_unaligned_section_never_covers_uncertified_bytes(self):
        # 1-byte elements, certified [3, 13) on a granule of 8: no whole
        # granule fits inside — the range shrinks inward to nothing rather
        # than rounding outward over uncertified bytes.
        reg = ShadowRegistry(granule=8, sections={"a": (3, 13, 64)})
        reg.create(0x2000, 64, label="a")
        assert reg.section_for_base(0x2000) is None

    def test_partially_aligned_section_keeps_inner_granules(self):
        reg = ShadowRegistry(granule=8, sections={"a": (3, 17, 64)})
        reg.create(0x2000, 64, label="a")
        # bytes [3, 17) -> inward-aligned [8, 16): exactly one granule.
        assert reg.section_for_base(0x2000) == (0x2008, 0x2010)

    def test_mismatched_allocation_size_records_nothing(self):
        # 100 bytes do not divide into 64 elements: refuse the grant.
        reg = ShadowRegistry(granule=8, sections={"a": (0, 32, 64)})
        reg.create(0x3000, 100, label="a")
        assert reg.section_for_base(0x3000) is None

    def test_drop_forgets_the_section_range(self):
        reg = ShadowRegistry(granule=8, sections={"a": (0, 32, 64)})
        reg.create(0x1000, 512, label="a")
        reg.drop(0x1000)
        assert reg.section_for_base(0x1000) is None

    def test_unrelated_labels_record_nothing(self):
        reg = ShadowRegistry(granule=8, sections={"a": (0, 32, 64)})
        reg.create(0x4000, 512, label="b")
        assert reg.section_for_base(0x4000) is None


class TestTelemetryCounters:
    def test_skip_counters_emitted_inside_scope(self):
        benchmark = get(1)
        certs = dracc_certificates()
        registry = Telemetry(record_spans=False)
        _run(benchmark, certs[benchmark.name], registry)
        counters = registry.snapshot()["counters"]
        assert counters["staticlint.shadow_skips"] > 0
        assert counters["staticlint.access_skips"] > 0
