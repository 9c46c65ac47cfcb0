"""Per-layer probes: time each module's public calls from outside.

Each probe calls one layer's public functions on seeded inputs, or replays
the calls a higher layer makes (one next_bits(n) per block for the mask
stream, for example), so a layer's cost can be read without spans inside
the library.  Rare-event ratios come from CountingRng, a proxy around the
rng argument that keygen, sign and new_operator accept, and from a
KeystreamState subclass that counts the draws next_index makes.

Every traced run of every workload runs all probes, so each reports the
same per-layer metrics.  Probe inputs depend only on the seed.
"""

from __future__ import annotations

import random
import statistics
import time

from permcrypt import codec
from permcrypt.hidden_ring import new_operator
from permcrypt.hppk_ds import ds_keygen, ds_params, sign, verify
from permcrypt.hppk_kem import LEVELS, decapsulate, encapsulate, kem_params, keygen
from permcrypt.keystream import (
    TAG_QPP_DISPATCH,
    TAG_QPP_PRERAND,
    KeystreamState,
    hash_to_field,
)
from permcrypt.qpp import (
    MODE_SEQUENTIAL,
    blocks_from_bytes,
    bytes_from_blocks,
    decrypt_stream,
    encrypt_stream,
    generate_pad,
)
from permcrypt.ring_arith import inv_mod, mul_mod

from tracing import Calibration, CountingRng, SeededRng, Tracer
from workloads import SHAPES, CliFiles, spawn

clock = time.perf_counter


class _CountingKeystream(KeystreamState):
    """KeystreamState that counts next_bits calls, including next_index's."""

    draws = 0

    def next_bits(self, k: int) -> int:
        self.draws += 1
        return super().next_bits(k)


def _per_call(fn, args_list) -> float:
    """Mean seconds per call over the argument list."""
    t0 = clock()
    for args in args_list:
        fn(*args)
    return (clock() - t0) / len(args_list)


def _shape_probes(rnd, quick, m):
    size = 96 if quick else 30 * 1024  # whole blocks at n = 12
    message = rnd.randbytes(size)
    key = rnd.randbytes(32)
    pad_seed = rnd.randbytes(32)
    for name, (n, size_m, mode) in SHAPES.items():
        blocks = 8 * size // n
        t0 = clock()
        pad = generate_pad(pad_seed, n, size_m)
        m[f"qpp.generate_pad_s.{name}"] = (clock() - t0, "s")
        decrypt_stream(pad, key, bytes(3))  # build the inverse tables untimed
        t0 = clock()
        ct = encrypt_stream(pad, key, message, mode)
        encrypt_s = clock() - t0
        t0 = clock()
        decrypt_stream(pad, key, ct, mode)
        m[f"qpp.encrypt_stream_s.{name}"] = (encrypt_s, "s")
        m[f"qpp.decrypt_stream_s.{name}"] = (clock() - t0, "s")

        state = KeystreamState(key, TAG_QPP_PRERAND)
        t0 = clock()
        for _ in range(blocks):
            state.next_bits(n)
        mask_s = clock() - t0
        m[f"keystream.mask_draw_ns_per_block.{name}"] = (mask_s / blocks * 1e9, "ns")

        # The pipeline's dispatch step: next_index(M), or t % M in sequential mode.
        if mode == MODE_SEQUENTIAL:
            t0 = clock()
            for t in range(blocks):
                t % size_m
            dispatch_s = clock() - t0
            accept = 1.0  # no draws, nothing rejected
        else:
            state = KeystreamState(key, TAG_QPP_DISPATCH)
            t0 = clock()
            for _ in range(blocks):
                state.next_index(size_m)
            dispatch_s = clock() - t0
            counting = _CountingKeystream(key, TAG_QPP_DISPATCH)
            for _ in range(blocks):
                counting.next_index(size_m)
            accept = blocks / counting.draws if counting.draws else 1.0
        m[f"keystream.dispatch_draw_ns_per_block.{name}"] = (dispatch_s / blocks * 1e9, "ns")
        m[f"keystream.dispatch_accept_ratio.{name}"] = (accept, "ratio")

        t0 = clock()
        split = blocks_from_bytes(message, n)
        split_s = clock() - t0
        t0 = clock()
        bytes_from_blocks(split, n)
        pack_s = clock() - t0
        m[f"qpp.split_s.{name}"] = (split_s, "s")
        m[f"qpp.pack_s.{name}"] = (pack_s, "s")
        m[f"qpp.substitute_self_s.{name}"] = (
            encrypt_s - mask_s - dispatch_s - split_s - pack_s, "s")

    length = 4096 if quick else 1 << 20
    t0 = clock()
    KeystreamState(key, TAG_QPP_PRERAND).next_bytes(length)
    m["keystream.squeeze_mib_s"] = (length / (1 << 20) / (clock() - t0), "MiB/s")

    pad = generate_pad(pad_seed, 8, 64)
    blob = codec.encode_pad(pad)
    t0 = clock()
    codec.decode_pad(blob)
    m["codec.decode_pad_ms"] = (1e3 * (clock() - t0), "ms")
    data = rnd.randbytes(4096 if quick else 256 * 1024)
    t0 = clock()
    codec.pad_bits(data, 8)
    m["codec.pad_bits_ms"] = (1e3 * (clock() - t0), "ms")


def _ring_probes(rnd, quick, m):
    reps = 100 if quick else 20000
    rng = CountingRng(SeededRng(rnd.getrandbits(64)))
    ring_sizes = sorted({kem_params(lv).ring_bits for lv in LEVELS}
                        | {ds_params(lv).ring_bits for lv in LEVELS})
    operators = []
    multiplier_draws = 0
    first_accepts = 0
    count = 200 if quick else 20000
    t0 = clock()
    for i in range(count):
        before = len(rng.bounds)
        operators.append(new_operator(rng, ring_sizes[i % len(ring_sizes)]))
        # One modulus draw, then one multiplier draw per coprimality test.
        draws = len(rng.bounds) - before - 1
        multiplier_draws += draws
        first_accepts += draws == 1
    m["hidden_ring.new_operator_us"] = (1e6 * (clock() - t0) / count, "us")
    # Pooled over moduli this tends to zeta(6)/(zeta(2)*zeta(3)) ~ 0.5145;
    # 6/pi^2 ~ 0.608 is only the first-draw rate.
    m["hidden_ring.coprime_accept"] = (count / multiplier_draws, "ratio")
    m["hidden_ring.coprime_first_accept"] = (first_accepts / count, "ratio")

    sample = [(op, rnd.randrange(1, int(op.modulus))) for op in operators[:reps]]
    sample = (sample * (reps // len(sample) + 1))[:reps]
    m["hidden_ring.apply_ns"] = (1e9 * _per_call(lambda op, a: op.apply(a), sample), "ns")
    m["hidden_ring.invert_ns"] = (1e9 * _per_call(lambda op, a: op.invert(a), sample), "ns")
    args = [(a, int(op.multiplier), int(op.modulus)) for op, a in sample]
    m["ring_arith.mul_mod_ns"] = (1e9 * _per_call(mul_mod, args), "ns")
    args = [(int(op.multiplier), int(op.modulus)) for op, _ in sample]
    m["ring_arith.inv_mod_us"] = (1e6 * _per_call(inv_mod, args), "us")


def _keygen_resampled(bounds, params) -> bool:
    # Field draws before the first ring draw: two per factor, one per base
    # entry; any more means keygen resampled a degenerate draw.
    ring_start = bounds.index(1 << (params.ring_bits - 1))
    return ring_start > 4 + (params.base_order + 1) * params.noise_count


def _hppk_probes(rnd, quick, m):
    keys = 3 if quick else 100
    ops = 5 if quick else 1000
    rng = SeededRng(rnd.getrandbits(64))
    keygens = resampled = 0
    signs = redraws = 0
    messages = [rnd.randbytes(64) for _ in range(16)]
    hash_args = []
    enc = {name: [] for name in ("kem_public", "kem_private", "kem_ciphertext",
                                 "verification_key", "signature")}
    for level in LEVELS:
        params = kem_params(level, 2)
        t0 = clock()
        for _ in range(keys):
            counting = CountingRng(rng)
            sk, pk = keygen(params, counting)
            keygens += 1
            resampled += _keygen_resampled(counting.bounds, params)
        m[f"hppk_kem.keygen_us.{level}"] = (1e6 * (clock() - t0) / keys, "us")
        t0 = clock()
        sessions = [encapsulate(pk, params, rng) for _ in range(ops)]
        m[f"hppk_kem.encapsulate_us.{level}"] = (1e6 * (clock() - t0) / ops, "us")
        cts = [ct for _, ct in sessions]
        t0 = clock()
        for ct in cts:
            decapsulate(sk, ct, params)
        m[f"hppk_kem.decapsulate_us.{level}"] = (1e6 * (clock() - t0) / ops, "us")
        enc["kem_public"].append((codec.encode_kem_public, codec.decode_kem_public, pk, params))
        enc["kem_private"].append((codec.encode_kem_private, codec.decode_kem_private, sk, params))
        enc["kem_ciphertext"].append(
            (codec.encode_kem_ciphertext, codec.decode_kem_ciphertext, cts[0], params))

        params = ds_params(level)
        counting = CountingRng(rng)
        sk, _, vk = ds_keygen(params, counting)
        keygens += 1
        resampled += _keygen_resampled(counting.bounds, params)
        batch = [messages[i % len(messages)] for i in range(ops)]
        t0 = clock()
        for message in batch:
            sign(sk, params, message, rng)
        m[f"hppk_ds.sign_us.{level}"] = (1e6 * (clock() - t0) / ops, "us")
        counting = CountingRng(rng)
        t0 = clock()
        sigs = [sign(sk, params, message, counting, vk=vk) for message in batch]
        m[f"hppk_ds.sign_selfcheck_us.{level}"] = (1e6 * (clock() - t0) / ops, "us")
        signs += ops
        redraws += len(counting.bounds) - ops  # one blinding draw per attempt
        t0 = clock()
        for message, sig in zip(batch, sigs):
            verify(vk, params, message, sig)
        m[f"hppk_ds.verify_us.{level}"] = (1e6 * (clock() - t0) / ops, "us")
        enc["verification_key"].append(
            (codec.encode_verification_key, codec.decode_verification_key, vk, params))
        enc["signature"].append((codec.encode_signature, codec.decode_signature, sigs[0], params))
        hash_args += [(message, params.prime, params.hash_bytes) for message in messages]

    m["hppk_kem.keygen_resample_ratio"] = (resampled / keygens, "ratio")
    m["hppk_ds.selfcheck_redraw_ratio"] = (redraws / signs, "ratio")
    m["keystream.hash_to_field_us"] = (
        1e6 * _per_call(hash_to_field, hash_args * (ops // 16 + 1)), "us")
    for name, cases in enc.items():
        encode_args = [(obj, params) for _, _, obj, params in cases] * ops
        blobs = [(encode(obj, params),) for encode, _, obj, params in cases] * ops
        m[f"codec.encode_{name}_us"] = (1e6 * _per_call(cases[0][0], encode_args), "us")
        m[f"codec.decode_{name}_us"] = (1e6 * _per_call(cases[0][1], blobs), "us")


def _cli_probes(seed, quick, work, m):
    reps = 1 if quick else 5
    start = [spawn(["-c", "pass"], work) for _ in range(reps)]
    imports = [spawn(["-c", "import permcrypt.cli"], work) for _ in range(reps)]
    if any(code for code, _, _ in start + imports):
        raise RuntimeError("an interpreter start-up probe failed")
    start_ms = 1e3 * statistics.median(t for _, t, _ in start)
    m["cli.interpreter_start_ms"] = (start_ms, "ms")
    m["cli.import_ms"] = (1e3 * statistics.median(t for _, t, _ in imports) - start_ms, "ms")
    m["cli.baseline_rss_mib"] = (statistics.median(r for _, _, r in imports), "MiB")
    tracer = Tracer()
    CliFiles(seed, work, quick).round(0, tracer.span, Calibration())
    for name, ns in tracer.self_ns.items():
        m[f"{name}_ms"] = (ns / 1e6, "ms")


def run_probes(seed: int, quick: bool, work) -> dict:
    """All per-layer probe metrics, name -> (value, unit)."""
    rnd = random.Random(f"probes/{seed}")
    m = {}
    _shape_probes(rnd, quick, m)
    _ring_probes(rnd, quick, m)
    _hppk_probes(rnd, quick, m)
    _cli_probes(seed, quick, work, m)
    return m
