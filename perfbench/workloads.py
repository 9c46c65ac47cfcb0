"""The benchmark's three workloads, each a closed loop of rounds.

One client runs one round at a time in one process; CLI commands run as
child processes one after another.  A round times its sender side
(encrypt, encapsulate, sign), its receiver side (decrypt, decapsulate,
verify) and its key generation apart, then checks every output outside
the timed regions.  Every step's wall time is scaled by a calibration
taken next to it (see tracing.Calibration).  Constructing a workload builds its inputs from the
seed; that is the set-up the benchmark times.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import permcrypt
from permcrypt import codec
from permcrypt.errors import FormatError
from permcrypt.hppk_ds import ds_keygen, ds_params, sign, verify
from permcrypt.hppk_kem import LEVELS, decapsulate, encapsulate, kem_params, keygen
from permcrypt.qpp import (
    MODE_RANDOM,
    MODE_SEQUENTIAL,
    decrypt_stream,
    encrypt_stream,
    generate_pad,
)

import reference
from tracing import CALIBRATION_S, SeededRng

# The checkout's source tree, which the CLI children import from.
SRC = Path(permcrypt.__file__).resolve().parent.parent

# name -> (block bits n, pad size M, dispatch mode)
SHAPES = {
    "n8m64": (8, 64, MODE_RANDOM),
    "n8m64-seq": (8, 64, MODE_SEQUENTIAL),
    "n12m3": (12, 3, MODE_RANDOM),
    "n1m1": (1, 1, MODE_RANDOM),
}
# Bytes of every ciphertext compared with the reference; a whole number of
# blocks for every shape above.
REFERENCE_PREFIX = 48
_POOL = 8


@dataclass
class Round:
    sender_s: float = 0.0
    receiver_s: float = 0.0
    keygen_s: float = 0.0
    rss_mib: float = 0.0  # largest child RSS of the round; CLI workload only
    attempted: int = 0
    failed: int = 0


def qpp_output_ok(pad, seed, mode, plaintext, ciphertext, decrypted) -> bool:
    """Ciphertext prefix matches the reference and the round trip is exact."""
    prefix = plaintext[:REFERENCE_PREFIX]
    tables = [perm.table for perm in pad.perms]
    want = reference.encrypt_prefix(tables, pad.n, seed, mode == MODE_SEQUENTIAL, prefix)
    return (
        len(ciphertext) == len(plaintext)
        and ciphertext[: len(prefix)] == want
        and decrypted == plaintext
    )


def signature_output_ok(vk, params, message, accepted, sig_bytes, flip) -> bool:
    """The signature verified, and the same bytes with one payload bit flipped do not."""
    if not accepted:
        return False
    tampered = bytearray(sig_bytes)
    bit = flip % (8 * (len(sig_bytes) - codec.HEADER_LEN))
    tampered[codec.HEADER_LEN + bit // 8] ^= 1 << (bit % 8)
    try:
        sig, _ = codec.decode_signature(bytes(tampered))
    except FormatError:
        return True
    return not verify(vk, params, message, sig)


class QppStream:
    """Library encrypt_stream then decrypt_stream under four pad shapes."""

    def __init__(self, seed: int, work: Path, quick: bool):
        rnd = random.Random(seed)
        size = 96 if quick else 6144
        pads = {}
        for name, (n, m, _) in SHAPES.items():
            if (n, m) not in pads:
                pads[n, m] = generate_pad(rnd.randbytes(32), n, m)
            # The inverse tables are built lazily by the first decryption.
            decrypt_stream(pads[n, m], b"warm", bytes(3))
        self.pads = {name: pads[n, m] for name, (n, m, _) in SHAPES.items()}
        self.shapes = sorted(pads)
        self.messages = [rnd.randbytes(size) for _ in range(_POOL)]
        self.keys = [rnd.randbytes(32) for _ in range(_POOL)]
        self.pad_seeds = [rnd.randbytes(32) for _ in range(_POOL)]

    def round(self, i: int, span, cal) -> Round:
        out = Round()
        clock = time.perf_counter
        for j, (name, (_, _, mode)) in enumerate(SHAPES.items()):
            pad = self.pads[name]
            key = self.keys[(i + j) % _POOL]
            message = self.messages[(i + 3 * j) % _POOL]
            k = cal.scale()
            t0 = clock()
            with span("qpp.encrypt_stream"):
                ct = encrypt_stream(pad, key, message, mode)
            t1 = clock()
            with span("qpp.decrypt_stream"):
                pt = decrypt_stream(pad, key, ct, mode)
            t2 = clock()
            out.sender_s += k * (t1 - t0)
            out.receiver_s += k * (t2 - t1)
            out.attempted += 1
            if not qpp_output_ok(pad, key, mode, message, ct, pt):
                out.failed += 1
                _report(f"qpp {name} round {i}: ciphertext or round trip wrong")
        for n, m in self.shapes:
            k = cal.scale()
            t0 = clock()
            with span("qpp.generate_pad"):
                generate_pad(self.pad_seeds[i % _POOL], n, m)
            out.keygen_s += k * (clock() - t0)
        return out


class HppkSession:
    """Library KEM and DS sessions at levels I, III and V, plus key generation."""

    def __init__(self, seed: int, work: Path, quick: bool):
        rnd = random.Random(seed)
        self.rng = SeededRng(rnd.getrandbits(64))
        self.kem = []
        for level in LEVELS:
            for noise in (2, 3):
                params = kem_params(level, noise)
                sk, pk = keygen(params, self.rng)
                self.kem.append((params, sk, codec.encode_kem_public(pk, params)))
        self.ds = []
        for level in LEVELS:
            params = ds_params(level)
            sk, _, vk = ds_keygen(params, self.rng)
            self.ds.append((params, sk, vk, codec.encode_verification_key(vk, params)))
        self.messages = [rnd.randbytes(64) for _ in range(_POOL)]

    def round(self, i: int, span, cal) -> Round:
        out = Round()
        clock = time.perf_counter
        rng = self.rng
        for params, sk, pk_bytes in self.kem:
            k = cal.scale()
            t0 = clock()
            with span("codec.decode_kem_public"):
                pk, _ = codec.decode_kem_public(pk_bytes)
            with span("hppk_kem.encapsulate"):
                secret, ct = encapsulate(pk, params, rng)
            with span("codec.encode_kem_ciphertext"):
                ct_bytes = codec.encode_kem_ciphertext(ct, params)
            t1 = clock()
            with span("codec.decode_kem_ciphertext"):
                ct2, _ = codec.decode_kem_ciphertext(ct_bytes)
            with span("hppk_kem.decapsulate"):
                got = decapsulate(sk, ct2, params)
            t2 = clock()
            out.sender_s += k * (t1 - t0)
            out.receiver_s += k * (t2 - t1)
            out.attempted += 1
            if got != secret:
                out.failed += 1
                _report(f"KEM {params.level}/m{params.noise_count} round {i}: secrets differ")
        for j, (params, sk, vk, vk_bytes) in enumerate(self.ds):
            message = self.messages[(i + j) % _POOL]
            k = cal.scale()
            t0 = clock()
            with span("hppk_ds.sign"):
                sig = sign(sk, params, message, rng, vk=vk)
            with span("codec.encode_signature"):
                sig_bytes = codec.encode_signature(sig, params)
            t1 = clock()
            with span("codec.decode_signature"):
                sig2, _ = codec.decode_signature(sig_bytes)
            with span("codec.decode_verification_key"):
                vk2, _ = codec.decode_verification_key(vk_bytes)
            with span("hppk_ds.verify"):
                accepted = verify(vk2, params, message, sig2)
            t2 = clock()
            out.sender_s += k * (t1 - t0)
            out.receiver_s += k * (t2 - t1)
            out.attempted += 1
            if not signature_output_ok(vk, params, message, accepted, sig_bytes, i + j):
                out.failed += 1
                _report(f"DS {params.level} round {i}: accepted={accepted}, tampered copy not rejected"
                        if accepted else f"DS {params.level} round {i}: signature rejected")
        for j, (params, _, _, _) in enumerate(self.ds):
            k = cal.scale()
            t0 = clock()
            with span("hppk_ds.ds_keygen"):
                sk, _, vk = ds_keygen(params, rng)
            out.keygen_s += k * (clock() - t0)
            # The fresh triple must sign and verify.  Without vk the signer
            # skips its self-check, and one of 210 000 such signatures failed
            # verification (at DS-III), so sign as the sessions do.
            message = self.messages[(i + j) % _POOL]
            out.attempted += 1
            if not verify(vk, params, message, sign(sk, params, message, rng, vk=vk)):
                out.failed += 1
                _report(f"DS {params.level} round {i}: fresh key's signature rejected")
        return out


class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout


_COMMAND_TIMEOUT_S = 60


def spawn(args, cwd, stderr=subprocess.DEVNULL):
    """Run `python args...` with src importable, one child at a time.

    Returns (exit code, wall seconds, peak RSS in MiB).  The RSS comes from
    os.wait4 for this child alone; a child still running after 60 s is
    killed and CommandTimeout raised.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(_COMMAND_TIMEOUT_S)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=stderr)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    except BaseException:  # timeout or interrupt: stop the child first
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024


class CliFiles:
    """Sequential `python -m permcrypt.cli` processes over seeded files."""

    def __init__(self, seed: int, work: Path, quick: bool):
        rnd = random.Random(seed)
        self.dir = work
        self.data = rnd.randbytes(4096 if quick else 128 * 1024)
        (work / "input.bin").write_bytes(self.data)
        (work / "message.txt").write_bytes(rnd.randbytes(256))
        self.seeds = [rnd.randbytes(16).hex() for _ in range(_POOL)]

    def run(self, argv, span, cal):
        """One command: (exit code, calibrated seconds, peak RSS in MiB).

        The calibrations before and after the child bracket it; the
        command's wall time is scaled by their mean.
        """
        command = argv[0]
        before = cal.chunk_s(max_age=0.05)
        with span(f"cli.{command}"), open(self.dir / "stderr.txt", "wb") as err:
            code, elapsed, rss = spawn(["-m", "permcrypt.cli", *argv], self.dir, err)
        after = cal.chunk_s(max_age=0.0)
        if code != 0:
            detail = (self.dir / "stderr.txt").read_text(errors="replace").strip()
            _report(f"{command} exited {code}: {detail}")
        return code, elapsed * 2 * CALIBRATION_S / (before + after), rss

    def round(self, i: int, span, cal) -> Round:
        out = Round()
        for name in ("ss1.bin", "ss2.bin", "input.enc", "input.dec", "sig.bin"):
            (self.dir / name).unlink(missing_ok=True)
        seed = ["--seed-hex", self.seeds[i % _POOL], "--unsafe-seed"]
        key = ["--key-hex", self.seeds[(i + 1) % _POOL]]
        steps = [
            ("keygen", ["keygen", "--level", "III", "--sk", "sk.bin", "--pk", "pk.bin",
                        "--vk", "vk.bin", *seed]),
            ("keygen", ["qpp-keygen", "--out", "pad.bin", *seed]),
            ("sender", ["encaps", "--pk", "pk.bin", "--out", "ct.bin", "--ss", "ss1.bin", *seed]),
            ("sender", ["sign", "--sk", "sk.bin", "--vk", "vk.bin", "--in", "message.txt",
                        "--out", "sig.bin", *seed]),
            ("sender", ["qpp-encrypt", "--pad", "pad.bin", *key, "--in", "input.bin",
                        "--out", "input.enc"]),
            ("receiver", ["decaps", "--sk", "sk.bin", "--in", "ct.bin", "--out", "ss2.bin"]),
            ("receiver", ["verify", "--vk", "vk.bin", "--in", "message.txt", "--sig", "sig.bin"]),
            ("receiver", ["qpp-decrypt", "--pad", "pad.bin", *key, "--in", "input.enc",
                          "--out", "input.dec"]),
        ]
        codes = {}
        for side, argv in steps:
            codes[argv[0]], elapsed, rss = self.run(argv, span, cal)
            setattr(out, f"{side}_s", getattr(out, f"{side}_s") + elapsed)
            if argv[0].startswith("qpp-"):
                out.rss_mib = max(out.rss_mib, rss)
        ss1, ss2 = (_read(self.dir / name) for name in ("ss1.bin", "ss2.bin"))
        if codes["decaps"] == 0 and (not ss1 or ss1 != ss2):
            codes["decaps"] = "shared secrets differ"
            _report(f"cli round {i}: shared secrets differ")
        if codes["qpp-decrypt"] == 0 and _read(self.dir / "input.dec") != self.data:
            codes["qpp-decrypt"] = "decrypted file differs from the input"
            _report(f"cli round {i}: decrypted file differs from the input")
        out.attempted = len(codes)
        out.failed = sum(code != 0 for code in codes.values())
        return out


def _report(message: str):
    print(f"check failed: {message}", file=sys.stderr)


def _read(path: Path):
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


WORKLOADS = {"qpp-stream": QppStream, "hppk-session": HppkSession, "cli-files": CliFiles}
