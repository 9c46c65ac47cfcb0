"""The benchmark's own test.  Run: python3 -m pytest -q perfbench/selftest.py

Quick mode runs every workload on tiny inputs and must print exactly the
metrics BENCHMARK.json names, with their units.  The output checks must
fire on a corrupted ciphertext byte and on a flipped signature bit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from permcrypt import codec  # noqa: E402
from permcrypt.hppk_ds import sign, verify  # noqa: E402
from permcrypt.qpp import MODE_SEQUENTIAL, decrypt_stream, encrypt_stream  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Calibration, no_span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_metric_with_its_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--quick")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in group}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    out = _bench("--workload", "qpp-stream", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("shape", list(workloads.SHAPES))
def test_reference_matches_encrypt_stream_byte_for_byte(shape):
    n, m, mode = workloads.SHAPES[shape]
    wl = workloads.QppStream(5, HERE, quick=True)
    pad, key, message = wl.pads[shape], wl.keys[0], wl.messages[0]
    tables = [perm.table for perm in pad.perms]
    want = encrypt_stream(pad, key, message, mode)
    assert reference.encrypt_prefix(tables, n, key, mode == MODE_SEQUENTIAL, message) == want


@pytest.mark.parametrize("shape", list(workloads.SHAPES))
def test_qpp_check_fires_on_a_corrupted_ciphertext_byte(shape):
    _, _, mode = workloads.SHAPES[shape]
    wl = workloads.QppStream(5, HERE, quick=True)
    pad, key, message = wl.pads[shape], wl.keys[0], wl.messages[0]
    ct = encrypt_stream(pad, key, message, mode)
    assert workloads.qpp_output_ok(pad, key, mode, message, ct, message)
    for at in (1, len(ct) - 1):  # inside and beyond the reference prefix
        bad = bytearray(ct)
        bad[at] ^= 0x04
        bad = bytes(bad)
        pt = decrypt_stream(pad, key, bad, mode)
        assert not workloads.qpp_output_ok(pad, key, mode, message, bad, pt)


def test_qpp_round_counts_a_corrupted_ciphertext(monkeypatch):
    def corrupt(pad, seed, plaintext, mode):
        ct = bytearray(encrypt_stream(pad, seed, plaintext, mode))
        ct[0] ^= 0x80
        return bytes(ct)

    wl = workloads.QppStream(5, HERE, quick=True)
    monkeypatch.setattr(workloads, "encrypt_stream", corrupt)
    out = wl.round(1, no_span, Calibration())
    assert out.failed == out.attempted == len(workloads.SHAPES)


def test_signature_check_fires_on_a_flipped_bit():
    wl = workloads.HppkSession(5, HERE, quick=True)
    for params, sk, vk, _ in wl.ds:
        message = b"benchmark message"
        good = codec.encode_signature(sign(sk, params, message, wl.rng), params)
        assert workloads.signature_output_ok(vk, params, message, True, good, 7)
        bad = bytearray(good)
        bad[-1] ^= 0x01
        sig, _ = codec.decode_signature(bytes(bad))
        accepted = verify(vk, params, message, sig)
        assert not workloads.signature_output_ok(vk, params, message, accepted, bytes(bad), 7)


def test_hppk_round_counts_a_flipped_signature_bit(monkeypatch):
    def flipped(sk, params, message, rng=None, vk=None):
        sig = sign(sk, params, message, rng, vk=vk)
        blob = bytearray(codec.encode_signature(sig, params))
        blob[-1] ^= 0x01
        return codec.decode_signature(bytes(blob))[0]

    wl = workloads.HppkSession(5, HERE, quick=True)
    monkeypatch.setattr(workloads, "sign", flipped)
    out = wl.round(1, no_span, Calibration())
    # Three DS sessions and three fresh-key checks sign through the patch.
    assert out.failed == 6
