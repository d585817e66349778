"""Output checks, made apart from the program's fast paths.

(a) every converged frame satisfies H c = 0, computed here from the
    code's expanded parity-check matrix;
(b) every converged frame equals the transmitted codeword;
(c) a seeded sample, unconverged frames included, matches the per-frame
    reference ``LayeredMinSumDecoder`` on the same LLRs in bits,
    iteration count and converged flag.  On the wire the reference gets
    the LLRs a REQUEST frame carries, ``decode_frame(encode_request(x))``:
    the frame holds the int8 scale as a 32-bit float, so
    ``unpack_llrs(pack_llrs(x))``, which keeps it in 64 bits, differs in
    the last bits and flips about one iteration count in 3000 frames;
(d) no frame was shed: a shed frame runs on a smaller iteration budget
    and may rightly differ from the reference, so a count of shed
    decisions above 0 (the service's and the gateway's,
    ``probes.shed_count``) fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.decoder.layered import LayeredMinSumDecoder
from repro.net.protocol import decode_frame, encode_request


class ParityChecker(object):
    """Batch syndrome weights from the expanded H, grouped by row degree."""

    def __init__(self, code) -> None:
        h = np.asarray(code.parity_check_matrix, dtype=np.uint8)
        degrees = h.sum(axis=1)
        self._groups = []
        for d in np.unique(degrees):
            rows = np.flatnonzero(degrees == d)
            cols = np.nonzero(h[rows])[1].reshape(rows.size, int(d))
            self._groups.append(cols)

    def weights(self, bits: np.ndarray) -> np.ndarray:
        """Unsatisfied checks per frame of an ``(N, n)`` 0/1 matrix."""
        bits = np.asarray(bits, dtype=np.uint8)
        total = np.zeros(bits.shape[0], dtype=np.int64)
        for cols in self._groups:
            syn = np.bitwise_xor.reduce(bits[:, cols], axis=2)
            total += syn.sum(axis=1, dtype=np.int64)
        return total


def wire_llrs(llrs: np.ndarray) -> np.ndarray:
    """The LLRs the gateway decodes when a client sends ``llrs``."""
    return decode_frame(encode_request(0, "", "", 0, llrs=llrs)[4:]).llrs()


@dataclass
class Outputs(object):
    """What the program returned, one row per decoded frame."""

    index: np.ndarray  # frame index into the FrameSet
    bits: np.ndarray  # (M, n/8) packed hard decisions
    converged: np.ndarray  # (M,) bool
    iterations: np.ndarray  # (M,) int


@dataclass
class CheckReport(object):
    """Frames that failed a check, and why."""

    failed: int = 0
    problems: List[str] = field(default_factory=list)
    sampled: int = 0

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.problems


def check_outputs(
    frames,
    out: Outputs,
    *,
    max_iterations: int,
    fixed: bool,
    wire: bool,
    frames_shed: int,
    sample: int,
    seed: int,
) -> CheckReport:
    """Run checks (a)-(d) over one run's outputs."""
    report = CheckReport()
    bad = np.zeros(out.index.shape[0], dtype=bool)
    conv = np.flatnonzero(out.converged)
    if conv.size:
        bits = np.unpackbits(out.bits[conv], axis=1)
        weights = ParityChecker(frames.code).weights(bits)
        parity_bad = conv[weights != 0]
        word_bad = conv[
            np.any(out.bits[conv] != frames.codewords[out.index[conv]], axis=1)
        ]
        for name, rows in (("(a) H.c != 0", parity_bad),
                           ("(b) codeword mismatch", word_bad)):
            if rows.size:
                bad[rows] = True
                report.problems.append(
                    f"{name} on {rows.size} converged frame(s), e.g. frame "
                    f"{int(out.index[rows[0]])}"
                )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC4EC]))
    unconv = np.flatnonzero(~out.converged)
    picked = set(rng.permutation(unconv)[: max(1, sample // 4)].tolist())
    rest = rng.permutation(out.index.shape[0])
    for row in rest:
        if len(picked) >= sample:
            break
        picked.add(int(row))
    ref = LayeredMinSumDecoder(frames.code, max_iterations=max_iterations,
                               fixed=fixed)
    ref_bad = []
    for row in sorted(picked):
        llrs = frames.llrs(int(out.index[row]))
        if wire:
            llrs = wire_llrs(llrs)
        want = ref.decode(llrs)
        got_bits = np.unpackbits(out.bits[row])
        if (
            bool(want.converged) != bool(out.converged[row])
            or int(want.iterations) != int(out.iterations[row])
            or not np.array_equal(want.bits, got_bits)
        ):
            ref_bad.append(
                f"frame {int(out.index[row])}: reference (converged "
                f"{bool(want.converged)}, {int(want.iterations)} iterations) "
                f"vs program ({bool(out.converged[row])}, "
                f"{int(out.iterations[row])} iterations), "
                f"{int(np.count_nonzero(want.bits != got_bits))} bits differ"
            )
            bad[row] = True
    report.sampled = len(picked)
    if ref_bad:
        report.problems.append(
            f"(c) {len(ref_bad)} of {len(picked)} sampled frame(s) differ "
            f"from the reference decoder; first: {ref_bad[0]}"
        )
    report.failed = int(bad.sum())
    if frames_shed:
        report.failed += int(frames_shed)
        report.problems.append(f"(d) {frames_shed} shed decision(s)")
    return report
