"""Seeded benchmark inputs: random payloads, encoded, sent through AWGN.

Every frame is a fresh random message, encoded into a codeword, BPSK
modulated and sent through an AWGN channel at the workload's Eb/N0
(noise drawn in 32-bit floats).  The channel LLRs are held as int8 plus a
per-frame scale -- the wire's own packing
(``repro.net.protocol.pack_llrs``) -- so a run's whole input set stays
small; callers hand the program the float expansion ``i8 * scale``.  No
two frames of a run share an LLR vector, so a content cache in the
program can gain nothing.

Encoding is vectorised over frames here (the program's ``RuEncoder``
handles one frame at a time, about 1 ms each); the first chunk of every
set is checked against the expanded parity-check matrix, and the tests
compare the encoder with ``RuEncoder``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.awgn import ebno_to_sigma
from repro.codes.base_matrix import ZERO_BLOCK

import verify

_CHUNK = 2048


@dataclass
class FrameSet(object):
    """A run's inputs: transmitted codewords and their channel LLRs."""

    code: object
    codewords: np.ndarray  # (N, n/8) packed bits
    llrs_i8: np.ndarray  # (N, n) int8
    scales: np.ndarray  # (N,) float64

    def __len__(self) -> int:
        return int(self.scales.shape[0])

    def llrs(self, index: int) -> np.ndarray:
        """The float LLR vector of one frame, as the program receives it."""
        return self.llrs_i8[index].astype(np.float64) * self.scales[index]

    def llr_rows(self, indices) -> np.ndarray:
        """Float LLRs of several frames, shape ``(len(indices), n)``."""
        idx = np.asarray(indices, dtype=np.int64)
        return self.llrs_i8[idx].astype(np.float64) * self.scales[idx, None]


def encode_batch(code, messages: np.ndarray) -> np.ndarray:
    """Encode ``(N, k)`` message bits into ``(N, n)`` codewords.

    The dual-diagonal (802.16e) parity structure is solved the way the
    program's ``RuEncoder`` does it, on all frames at once: accumulate
    the data blocks per block row, recover the special parity block from
    the row sum, then substitute down the dual diagonal.
    """
    z, mb, nb = code.z, code.mb, code.nb
    kb = nb - mb
    shifts = code.base.shifts
    lanes = np.arange(z)
    count = messages.shape[0]
    u = messages.reshape(count, kb, z)
    t = np.zeros((count, mb, z), dtype=np.uint8)
    for i in range(mb):
        for j, s in code.base.row_blocks(i):
            if j < kb:
                t[:, i] ^= u[:, j, (lanes + s) % z]
    special = shifts[:, kb]
    rows = np.flatnonzero(special != ZERO_BLOCK)
    top_shift = int(special[0])
    mid_row = int(rows[1])
    mid_shift = int(special[mid_row])
    sum_t = np.bitwise_xor.reduce(t, axis=1)
    p0 = sum_t[:, (lanes - mid_shift) % z]
    p = np.zeros((count, mb, z), dtype=np.uint8)
    p[:, 1] = t[:, 0] ^ p0[:, (lanes + top_shift) % z]
    for i in range(1, mb - 1):
        nxt = t[:, i] ^ p[:, i]
        if i == mid_row:
            nxt ^= p0[:, (lanes + mid_shift) % z]
        p[:, i + 1] = nxt
    return np.concatenate(
        [messages, p0, p[:, 1:].reshape(count, -1)], axis=1
    )


def pack_rows(llrs: np.ndarray):
    """Row-wise ``pack_llrs``: int8 values plus one scale per frame."""
    peak = np.max(np.abs(llrs), axis=1).astype(np.float64)
    scales = np.where(peak > 0, peak / 127.0, 1.0)
    i8 = np.clip(np.rint(llrs * (1.0 / scales[:, None]).astype(llrs.dtype)),
                 -127, 127).astype(np.int8)
    return i8, scales


def make_frames(code, ebno_db: float, count: int, seed: int,
                salt: int = 0) -> FrameSet:
    """``count`` distinct frames of ``code`` at ``ebno_db``, from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, salt]))
    n = code.n
    k = n - code.m
    sigma = ebno_to_sigma(ebno_db, code.rate)
    codewords = np.empty((count, n // 8), dtype=np.uint8)
    llrs_i8 = np.empty((count, n), dtype=np.int8)
    scales = np.empty(count, dtype=np.float64)
    gain = np.float32(2.0 / (sigma * sigma))
    for lo in range(0, count, _CHUNK):
        hi = min(count, lo + _CHUNK)
        messages = np.unpackbits(
            np.frombuffer(rng.bytes((hi - lo) * k // 8), dtype=np.uint8)
        ).reshape(hi - lo, k)
        cw = encode_batch(code, messages)
        if lo == 0 and verify.ParityChecker(code).weights(cw).any():
            raise RuntimeError("benchmark encoder produced a non-codeword")
        received = rng.standard_normal(cw.shape, dtype=np.float32)
        received *= np.float32(sigma)
        received += 1.0 - 2.0 * cw.astype(np.float32)
        received *= gain
        llrs_i8[lo:hi], scales[lo:hi] = pack_rows(received)
        codewords[lo:hi] = np.packbits(cw, axis=1)
    return FrameSet(code, codewords, llrs_i8, scales)
