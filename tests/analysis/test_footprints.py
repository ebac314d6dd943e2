"""Footprints and fingerprints: page math and cache-key stability."""

from __future__ import annotations

import pickle

from repro.analysis import analyze_program, build_context, page_count, program_fingerprint
from repro.analysis.footprints import Footprint
from repro.trace.program import Phase
from repro.trace.records import MemOp

from .conftest import PAGE, access, kernel, program, setup_phase


class TestPageCount:
    def test_exact_pages(self):
        assert page_count(0, 2 * PAGE, PAGE) == 2

    def test_partial_page_rounds_up(self):
        assert page_count(0, 1, PAGE) == 1
        assert page_count(PAGE - 1, PAGE + 1, PAGE) == 2

    def test_empty_interval(self):
        assert page_count(PAGE, PAGE, PAGE) == 0


class TestFootprint:
    def test_of_interval_page_rounding(self):
        fp = Footprint.of_interval("buf", 100, PAGE + 100, PAGE)
        assert fp.byte_start == 100 and fp.byte_end == PAGE + 100
        assert fp.page_start == 0 and fp.page_end == 2 * PAGE
        assert fp.pages == 2
        assert fp.bytes == PAGE

    def test_of_site(self):
        ctx = build_context(
            program([
                Phase("p", (
                    kernel("k", 0, access(offset=64, length=128, op=MemOp.WRITE)),
                ), iteration=0),
            ])
        )
        fp = Footprint.of_site(ctx.dataflow.sites[0], PAGE)
        assert fp.buffer == "buf"
        assert (fp.byte_start, fp.byte_end) == (64, 192)
        assert fp.pages == 1

    def test_byte_overlap_and_page_sharing(self):
        a = Footprint.of_interval("buf", 0, 128, PAGE)
        b = Footprint.of_interval("buf", 256, 512, PAGE)
        assert a.byte_overlap(b) is None  # disjoint bytes...
        assert a.shares_pages(b)  # ...but the same 64 KiB page
        c = Footprint.of_interval("buf", 64, 256, PAGE)
        assert a.byte_overlap(c) == (64, 128)
        d = Footprint.of_interval("other", 0, 128, PAGE)
        assert not a.shares_pages(d)


class TestProgramFingerprint:
    def _program(self, length=128):
        return program([
            setup_phase(),
            Phase("it0", (
                kernel("r", 0, access(length=length, op=MemOp.READ)),
            ), iteration=0),
        ])

    def test_deterministic(self):
        assert program_fingerprint(self._program(), PAGE) == \
            program_fingerprint(self._program(), PAGE)

    def test_sensitive_to_program_content(self):
        assert program_fingerprint(self._program(128), PAGE) != \
            program_fingerprint(self._program(256), PAGE)

    def test_sensitive_to_page_size(self):
        p = self._program()
        assert program_fingerprint(p, PAGE) != program_fingerprint(p, 2 * PAGE)

    def test_sensitive_to_analyzer_revision(self):
        p = self._program()
        assert program_fingerprint(p, PAGE) != \
            program_fingerprint(p, PAGE, revision="test-revision")

    def test_is_hex_sha256(self):
        digest = program_fingerprint(self._program(), PAGE)
        assert len(digest) == 64
        int(digest, 16)

    def test_memo_is_invisible(self):
        """The per-instance digest never shows in eq, repr or pickles."""
        p, q = self._program(), self._program()
        program_fingerprint(p, PAGE)
        assert p == q
        assert repr(p) == repr(q)
        assert pickle.dumps(p) == pickle.dumps(q)
        assert program_fingerprint(pickle.loads(pickle.dumps(p)), PAGE) == \
            program_fingerprint(q, PAGE)

    def test_metadata_edit_recomputes(self):
        p = program([
            Phase("it0", (
                kernel("w", 0, access(length=PAGE, op=MemOp.WRITE)),
            ), iteration=0),
        ], num_gpus=2)
        before = program_fingerprint(p, PAGE)
        assert "GPS103" in {d.code for d in analyze_program(p, page_size=PAGE)}
        p.metadata["analysis_ignore"] = ["GPS102"]
        ignoring = program_fingerprint(p, PAGE)
        assert ignoring != before
        p.metadata["analysis_ignore"].append("GPS103")  # an in-place edit counts too
        assert program_fingerprint(p, PAGE) not in (before, ignoring)
        assert "GPS103" not in {d.code for d in analyze_program(p, page_size=PAGE)}
