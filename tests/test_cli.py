import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from permcrypt import cli, codec, qpp
from permcrypt.cli import main
from permcrypt.errors import DecapsulationError
from permcrypt.hppk_ds import ds_keygen, ds_params
from permcrypt.hppk_kem import LEVELS
from permcrypt.kat import KAT_CONFIGS
from permcrypt.keystream import TAG_HPPK_KEYGEN, KeystreamState
from permcrypt.qpp import generate_pad

SRC = Path(__file__).resolve().parents[1] / "src"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def triple(tmp_path):
    paths = {name: tmp_path / f"{name}.bin" for name in ("sk", "pk", "vk")}
    code = run("keygen", "--level", "I",
               "--sk", paths["sk"], "--pk", paths["pk"], "--vk", paths["vk"],
               "--seed-hex", "aa" * 32, "--unsafe-seed")
    assert code == 0
    return paths


# --- key lifecycle ----------------------------------------------------------


def test_keygen_encaps_decaps_pipeline(tmp_path, triple):
    ct = tmp_path / "ct.bin"
    ss1 = tmp_path / "ss1.bin"
    ss2 = tmp_path / "ss2.bin"
    assert run("encaps", "--pk", triple["pk"], "--out", ct, "--ss", ss1) == 0
    assert run("decaps", "--sk", triple["sk"], "--in", ct, "--out", ss2) == 0
    assert ss1.read_bytes() == ss2.read_bytes()
    assert len(ss1.read_bytes()) == 8  # 64-bit field at the level-I DS row


def test_sign_verify_round_trip(tmp_path, triple):
    msg = tmp_path / "msg.txt"
    sig = tmp_path / "sig.bin"
    msg.write_bytes(b"a contract worth signing")
    assert run("sign", "--sk", triple["sk"], "--vk", triple["vk"],
               "--in", msg, "--out", sig) == 0
    assert run("verify", "--vk", triple["vk"], "--in", msg, "--sig", sig) == 0


def test_verify_rejects_tampering_with_exit_1(tmp_path, triple, capsys):
    msg = tmp_path / "msg.txt"
    sig = tmp_path / "sig.bin"
    msg.write_bytes(b"pay alice 10 coins")
    assert run("sign", "--sk", triple["sk"], "--vk", triple["vk"], "--in", msg, "--out", sig) == 0
    msg.write_bytes(b"pay mallory 10 coins")
    assert run("verify", "--vk", triple["vk"], "--in", msg, "--sig", sig) == 1
    assert "signature rejected" in capsys.readouterr().err


def test_sign_without_vk_is_a_usage_error(tmp_path, triple, capsys):
    msg, sig = tmp_path / "msg.txt", tmp_path / "sig.bin"
    msg.write_bytes(b"never released unchecked")
    assert run("sign", "--sk", triple["sk"], "--in", msg, "--out", sig) == 2
    assert "the following arguments are required: --vk" in capsys.readouterr().err
    assert not sig.exists()


def test_sign_with_another_keys_vk_is_a_usage_error(tmp_path, triple, capsys):
    other = {name: tmp_path / f"other-{name}.bin" for name in ("sk", "pk", "vk")}
    assert run("keygen", "--level", "I", "--sk", other["sk"], "--pk", other["pk"],
               "--vk", other["vk"], "--seed-hex", "cc" * 32, "--unsafe-seed") == 0
    capsys.readouterr()
    msg, sig = tmp_path / "msg.txt", tmp_path / "sig.bin"
    msg.write_bytes(b"signed under a stranger's key")
    assert run("sign", "--sk", triple["sk"], "--vk", other["vk"], "--in", msg,
               "--out", sig) == 2
    assert capsys.readouterr().err == (
        "error: verification key does not belong to this private key\n")
    assert not sig.exists()


def test_keygen_matches_library_under_same_seed(tmp_path, triple):
    params = ds_params("I")
    rng = KeystreamState(bytes.fromhex("aa" * 32), TAG_HPPK_KEYGEN)
    sk, pk, vk = ds_keygen(params, rng)
    assert triple["sk"].read_bytes() == codec.encode_kem_private(sk, params)
    assert triple["pk"].read_bytes() == codec.encode_kem_public(pk, params)
    assert triple["vk"].read_bytes() == codec.encode_verification_key(vk, params)


def test_unseeded_commands_draw_the_seeded_keystream(tmp_path, monkeypatch):
    # Without --seed-hex the seed is 32 OS bytes; pinning them to the
    # --seed-hex value must give the seeded run's bytes in every file.
    monkeypatch.setattr("secrets.token_bytes", lambda count: bytes.fromhex("aa" * 32))
    msg = tmp_path / "msg.txt"
    msg.write_bytes(b"one entropy path")
    outputs = []
    for seed_flags in ((), ("--seed-hex", "aa" * 32, "--unsafe-seed")):
        d = tmp_path / ("seeded" if seed_flags else "unseeded")
        d.mkdir()
        assert run("keygen", "--level", "I", "--sk", d / "sk", "--pk", d / "pk",
                   "--vk", d / "vk", *seed_flags) == 0
        assert run("encaps", "--pk", d / "pk", "--out", d / "ct", "--ss", d / "ss",
                   *seed_flags) == 0
        assert run("sign", "--sk", d / "sk", "--vk", d / "vk", "--in", msg,
                   "--out", d / "sig", *seed_flags) == 0
        outputs.append({name: (d / name).read_bytes()
                        for name in ("sk", "pk", "vk", "ct", "ss", "sig")})
    assert outputs[0] == outputs[1]


def test_seed_requires_unsafe_acknowledgement(tmp_path, capsys):
    code = run("keygen", "--level", "I",
               "--sk", tmp_path / "sk", "--pk", tmp_path / "pk",
               "--vk", tmp_path / "vk", "--seed-hex", "00")
    assert code == 2
    assert "--unsafe-seed" in capsys.readouterr().err


def test_garbage_key_file_is_a_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a key at all")
    assert run("encaps", "--pk", bad, "--out", tmp_path / "ct",
               "--ss", tmp_path / "ss") == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_a_usage_error(tmp_path):
    assert run("decaps", "--sk", tmp_path / "absent.bin",
               "--in", tmp_path / "ct", "--out", tmp_path / "ss") == 2


def test_unknown_subcommand_is_usage_error():
    assert run("frobnicate") == 2


@pytest.mark.parametrize("argv,missing", [
    ([], "permcrypt: error: the following arguments are required: command"),
    (["kat"], "permcrypt kat: error: the following arguments are required: kat_command"),
    (["info"], "permcrypt info: error: the following arguments are required: info_command"),
], ids=["no-command", "bare-kat", "bare-info"])
def test_a_command_group_without_its_subcommand_is_usage_error(capsys, argv, missing):
    # Only leaf parsers bind a handler, so each group must demand its subcommand.
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: permcrypt")
    assert err.splitlines()[-1] == missing


@pytest.mark.parametrize("argv,choices", [
    (["keygen"], LEVELS),
    (["qpp-encrypt"], qpp._MODES),
    (["kat", "emit"], ("all", *KAT_CONFIGS)),
], ids=["level", "mode", "kat-config"])
def test_help_lists_each_choice_the_library_defines_in_order(capsys, argv, choices):
    # cli.py spells the levels and KAT labels out so parsing loads no HPPK module.
    assert main([*argv, "--help"]) == 0
    assert "{%s}" % ",".join(choices) in capsys.readouterr().out


def test_each_spelled_out_choice_tuple_is_the_librarys_own():
    assert cli._LEVELS == LEVELS
    assert cli._MODES == qpp._MODES
    assert cli._KAT_LABELS == ("all", *KAT_CONFIGS)


@pytest.fixture
def mixed_files(tmp_path, triple):
    """The level-I triple next to level-III envelopes, a pad and an empty directory."""
    seed = ("--seed-hex", "bb" * 32, "--unsafe-seed")
    f = {**triple, **{name: tmp_path / name for name in (
        "skIII", "pkIII", "vkIII", "ctIII", "ssIII", "sigIII", "msg", "pad", "out", "empty")}}
    f["msg"].write_bytes(b"one message, two levels")
    f["empty"].mkdir()
    assert run("keygen", "--level", "III", "--sk", f["skIII"], "--pk", f["pkIII"],
               "--vk", f["vkIII"], *seed) == 0
    assert run("encaps", "--pk", f["pkIII"], "--out", f["ctIII"], "--ss", f["ssIII"], *seed) == 0
    assert run("sign", "--sk", f["skIII"], "--vk", f["vkIII"], "--in", f["msg"],
               "--out", f["sigIII"], *seed) == 0
    assert run("qpp-keygen", "--n", 8, "--M", 1, "--out", f["pad"], *seed) == 0
    return {name: str(path) for name, path in f.items()}


@pytest.mark.parametrize("argv,message", [
    (lambda f: ("decaps", "--sk", f["sk"], "--in", f["ctIII"], "--out", f["out"]),
     "key and ciphertext parameter sets differ"),
    (lambda f: ("sign", "--sk", f["sk"], "--vk", f["vkIII"], "--in", f["msg"], "--out", f["out"]),
     "key and verification key parameter sets differ"),
    (lambda f: ("verify", "--vk", f["vk"], "--sig", f["sigIII"], "--in", f["msg"]),
     "signature and verification key parameter sets differ"),
    (lambda f: ("qpp-encrypt", "--pad", f["pad"], "--key-hex", "", "--in", f["msg"],
                "--out", f["out"]),
     "--key-hex must not be empty"),
    (lambda f: ("kat", "check", "--in", f["empty"]), "no .kat files under {empty}"),
], ids=["decaps-other-level-ciphertext", "sign-other-level-vk", "verify-other-level-signature",
        "empty-session-key", "kat-check-empty-directory"])
def test_mismatched_or_empty_inputs_are_usage_errors(mixed_files, capsys, argv, message):
    assert run(*argv(mixed_files)) == 2
    assert capsys.readouterr().err == f"error: {message.format(**mixed_files)}\n"
    assert not Path(mixed_files["out"]).exists()


def test_a_cryptographic_refusal_exits_1(tmp_path, triple, monkeypatch, capsys):
    def refuse(sk, ct, params):
        raise DecapsulationError("degenerate ciphertext: base polynomial vanished")

    monkeypatch.setattr("permcrypt.hppk_kem.decapsulate", refuse)
    ct, ss = tmp_path / "ct.bin", tmp_path / "ss.bin"
    assert run("encaps", "--pk", triple["pk"], "--out", ct, "--ss", tmp_path / "ss0.bin") == 0
    assert run("decaps", "--sk", triple["sk"], "--in", ct, "--out", ss) == 1
    assert capsys.readouterr().err == "error: degenerate ciphertext: base polynomial vanished\n"
    assert not ss.exists()


def test_decaps_of_an_all_zero_ciphertext_exits_1(tmp_path, triple, capsys):
    # Zero evaluations lift to zero in both rings: a real refusal, not a patched one.
    ct, ss = tmp_path / "ct.bin", tmp_path / "ss.bin"
    assert run("encaps", "--pk", triple["pk"], "--out", ct, "--ss", tmp_path / "ss0.bin") == 0
    data = ct.read_bytes()
    ct.write_bytes(data[:codec.HEADER_LEN] + bytes(len(data) - codec.HEADER_LEN))
    assert run("decaps", "--sk", triple["sk"], "--in", ct, "--out", ss) == 1
    assert capsys.readouterr().err == "error: degenerate ciphertext: base polynomial vanished\n"
    assert not ss.exists()


# --- pad encryption ---------------------------------------------------------


@pytest.mark.parametrize("mode", ["random", "sequential"])
def test_qpp_file_round_trip(tmp_path, mode):
    pad = tmp_path / "pad.bin"
    src = tmp_path / "in.dat"
    enc = tmp_path / "out.enc"
    dec = tmp_path / "out.dec"
    src.write_bytes(b"files of arbitrary length survive the trip" * 7 + b"!")
    assert run("qpp-keygen", "--out", pad, "--n", 8, "--M", 16,
               "--seed-hex", "beef", "--unsafe-seed") == 0
    assert run("qpp-encrypt", "--pad", pad, "--key-hex", "c0ffee",
               "--in", src, "--out", enc, "--mode", mode) == 0
    assert enc.read_bytes() != src.read_bytes()
    assert run("qpp-decrypt", "--pad", pad, "--key-hex", "c0ffee",
               "--in", enc, "--out", dec) == 0
    assert dec.read_bytes() == src.read_bytes()


def test_qpp_keygen_rejects_oversized_pad_before_drawing(tmp_path, monkeypatch):
    def no_draws(state, size):
        raise AssertionError("drew a table for an oversized pad")

    monkeypatch.setattr(KeystreamState, "shuffle", no_draws)
    out = tmp_path / "pad.bin"
    assert run("qpp-keygen", "--out", out, "--n", 8, "--M", 70000) == 2
    assert not out.exists()


def test_qpp_pad_matches_library_under_same_seed(tmp_path):
    pad_path = tmp_path / "pad.bin"
    assert run("qpp-keygen", "--out", pad_path, "--n", 4, "--M", 8,
               "--seed-hex", "beef", "--unsafe-seed") == 0
    assert pad_path.read_bytes() == codec.encode_pad(
        generate_pad(bytes.fromhex("beef"), 4, 8)
    )


def test_qpp_decrypt_with_mismatched_pad_fails(tmp_path):
    pad_a = tmp_path / "a.pad"
    pad_b = tmp_path / "b.pad"
    src = tmp_path / "in.dat"
    enc = tmp_path / "out.enc"
    src.write_bytes(b"payload")
    run("qpp-keygen", "--out", pad_a, "--n", 8, "--M", 4,
        "--seed-hex", "01", "--unsafe-seed")
    run("qpp-keygen", "--out", pad_b, "--n", 4, "--M", 4,
        "--seed-hex", "02", "--unsafe-seed")
    run("qpp-encrypt", "--pad", pad_a, "--key-hex", "aa", "--in", src, "--out", enc)
    assert run("qpp-decrypt", "--pad", pad_b, "--key-hex", "aa",
               "--in", enc, "--out", tmp_path / "out.dec") == 2


def test_qpp_wrong_session_key_garbles_or_fails(tmp_path):
    pad = tmp_path / "pad.bin"
    src = tmp_path / "in.dat"
    enc = tmp_path / "out.enc"
    dec = tmp_path / "out.dec"
    src.write_bytes(b"sensitive bytes here")
    run("qpp-keygen", "--out", pad, "--n", 8, "--M", 8,
        "--seed-hex", "03", "--unsafe-seed")
    run("qpp-encrypt", "--pad", pad, "--key-hex", "aa", "--in", src, "--out", enc)
    code = run("qpp-decrypt", "--pad", pad, "--key-hex", "bb",
               "--in", enc, "--out", dec)
    assert code == 2 or dec.read_bytes() != src.read_bytes()


# --- KATs and info ----------------------------------------------------------


def test_kat_emit_and_check(tmp_path):
    out = tmp_path / "kats"
    assert run("kat", "emit", "--out", out, "--config", "KEM-I-m2",
               "--count", 2, "--seed-hex", "1234", "--unsafe-seed") == 0
    assert run("kat", "check", "--in", out) == 0


def test_kat_check_flags_corruption(tmp_path, capsys):
    out = tmp_path / "kats"
    run("kat", "emit", "--out", out, "--config", "DS-I", "--count", 2,
        "--seed-hex", "5678", "--unsafe-seed")
    path = out / "DS-I.kat"
    text = path.read_text()
    sig_line = next(l for l in text.splitlines() if l.startswith("sig = "))
    value = sig_line.split(" = ")[1]
    swap = "0" if value[0] != "0" else "f"
    path.write_text(text.replace(sig_line, f"sig = {swap}{value[1:]}", 1))
    assert run("kat", "check", "--in", path) == 1
    assert "field=sig" in capsys.readouterr().err


def test_kat_emit_rejects_count_below_one(tmp_path, capsys):
    out = tmp_path / "kats"
    assert run("kat", "emit", "--out", out, "--config", "DS-I", "--count", 0,
               "--seed-hex", "5678", "--unsafe-seed") == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old,new", [
    ("vectors = 1", "vectors = one"),
    ("count = 0", "count = zero"),
    ("seed = 5678", "seed = 56zz"),
    ("vectors = 1", "vectors = 01"),
    ("count = 0", "count = +0"),
])
def test_kat_check_rejects_malformed_fields_as_format_errors(tmp_path, capsys, old, new):
    out = tmp_path / "kats"
    run("kat", "emit", "--out", out, "--config", "DS-I", "--count", 1,
        "--seed-hex", "5678", "--unsafe-seed")
    path = out / "DS-I.kat"
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    code = run("kat", "check", "--in", path)
    err = capsys.readouterr().err
    if old == "count = 0":  # vector text is compared, so this is a KAT mismatch
        assert code == 1 and "count=0 field=count" in err
    else:
        assert code == 2
        assert "error:" in err and repr(old.split(" = ")[0]) in err


def test_kat_check_rejects_empty_vector_list(tmp_path, capsys):
    path = tmp_path / "empty.kat"
    path.write_text("alg = DS-I\nvectors = 0\nseed = 00\n")
    assert run("kat", "check", "--in", path) == 2
    assert "vectors" in capsys.readouterr().err


def test_kat_check_flags_a_renumbered_vector(tmp_path, capsys):
    out = tmp_path / "kats"
    run("kat", "emit", "--out", out, "--config", "DS-I", "--count", 2,
        "--seed-hex", "5678", "--unsafe-seed")
    path = out / "DS-I.kat"
    path.write_text(path.read_text().replace("count = 0\n", "count = 7\n", 1))
    assert run("kat", "check", "--in", path) == 1
    assert "count=0 field=count" in capsys.readouterr().err


def test_kat_check_rejects_a_repeated_field(tmp_path, capsys):
    out = tmp_path / "kats"
    run("kat", "emit", "--out", out, "--config", "DS-I", "--count", 1,
        "--seed-hex", "5678", "--unsafe-seed")
    path = out / "DS-I.kat"
    path.write_text(path.read_text().replace("seed = 5678\n", "seed = 5678\nseed = ffff\n"))
    assert run("kat", "check", "--in", path) == 2
    assert "'seed' is repeated" in capsys.readouterr().err


def test_kat_check_flags_a_field_emit_never_writes(tmp_path, capsys):
    out = tmp_path / "kats"
    run("kat", "emit", "--out", out, "--config", "DS-I", "--count", 2,
        "--seed-hex", "5678", "--unsafe-seed")
    path = out / "DS-I.kat"
    text = path.read_text()
    sig_line = [l for l in text.splitlines() if l.startswith("sig = ")][1]
    path.write_text(text.replace(sig_line, f"{sig_line}\njunk = zz\nct = 00"))
    assert run("kat", "check", "--in", path) == 1
    assert "count=1 field=junk" in capsys.readouterr().err


def test_kat_check_rejects_a_spaced_header_seed(tmp_path, capsys):
    out = tmp_path / "kats"
    run("kat", "emit", "--out", out, "--config", "DS-I", "--count", 1,
        "--seed-hex", "00112233", "--unsafe-seed")
    path = out / "DS-I.kat"
    path.write_text(path.read_text().replace("seed = 00112233\n", "seed = 0011 22 33\n"))
    assert run("kat", "check", "--in", path) == 2
    assert "'seed'" in capsys.readouterr().err


def test_kat_check_refuses_a_crlf_copy(tmp_path, capsys):
    # The bytes on disk are checked; no newline translation on read.
    out = tmp_path / "kats"
    run("kat", "emit", "--out", out, "--config", "DS-I", "--count", 1,
        "--seed-hex", "5678", "--unsafe-seed")
    path = out / "DS-I.kat"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert run("kat", "check", "--in", path) == 2
    assert "error:" in capsys.readouterr().err


def test_kat_check_rejects_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "bad.kat"
    path.write_bytes(b"alg = DS-I\n\xff\xfe\n")
    assert run("kat", "check", "--in", path) == 2
    assert "error:" in capsys.readouterr().err


def test_info_entropy_prints_rounded_bits(capsys):
    assert run("info", "entropy", "--n", 8, "--M", 64) == 0
    assert capsys.readouterr().out.strip() == "107776"
    assert run("info", "entropy", "--n", 8, "--M", 1, "--kind", "arithmetic") == 0
    assert capsys.readouterr().out.strip() == "15"


def test_info_complexity_prints_log2_operations(capsys):
    assert run("info", "complexity", "--L", 72) == 0
    assert capsys.readouterr().out.strip() == "142.87"


# --- modules each command loads -----------------------------------------------

_LOADED = ("import json, sys; bare = set(sys.modules); from permcrypt.cli import main; "
           "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
           "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('permcrypt.') "
           "or m in ('secrets', 'hashlib', 'typing', 'dataclasses', 'inspect') "
           "and m not in bare)]))")


def _run_fresh(*commands, flags=()):
    """The exit code of each command, run in turn by main in one fresh interpreter,
    and the modules that interpreter loaded: the permcrypt ones, and any of `secrets`,
    `hashlib`, `typing`, `dataclasses` and `inspect` that start-up had not already loaded."""
    argvs = json.dumps([[str(a) for a in argv] for argv in commands])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, *flags, "-c", _LOADED, argvs], env=env, check=True,
                         capture_output=True, text=True).stdout
    codes, loaded = json.loads(out.splitlines()[-1])
    return codes, set(loaded)


def test_qpp_commands_load_no_hppk_module(tmp_path):
    pad, msg, enc, dec = (tmp_path / name for name in ("pad", "msg", "enc", "dec"))
    msg.write_bytes(b"pad-only traffic")
    codes, loaded = _run_fresh(
        ("qpp-keygen", "--out", pad, "--seed-hex", "beef", "--unsafe-seed"),
        ("qpp-encrypt", "--pad", pad, "--key-hex", "c0ffee", "--in", msg, "--out", enc),
        ("qpp-decrypt", "--pad", pad, "--key-hex", "c0ffee", "--in", enc, "--out", dec),
    )
    assert codes == [0, 0, 0] and dec.read_bytes() == msg.read_bytes()
    hppk = {"permcrypt." + name for name in (
        "codec", "hppk_kem", "hppk_ds", "hidden_ring", "ring_arith", "kat")}
    assert loaded.isdisjoint(hppk | {"secrets"}), loaded & hppk
    assert "permcrypt.qpp" in loaded


def test_receiver_commands_load_no_kat_module(tmp_path, triple):
    msg, ct, sig = tmp_path / "msg", tmp_path / "ct", tmp_path / "sig"
    msg.write_bytes(b"signed and sealed")
    seed = ("--seed-hex", "beef", "--unsafe-seed")
    assert run("encaps", "--pk", triple["pk"], "--out", ct, "--ss", tmp_path / "ss", *seed) == 0
    assert run("sign", "--sk", triple["sk"], "--vk", triple["vk"], "--in", msg, "--out", sig,
               *seed) == 0
    codes, loaded = _run_fresh(
        ("decaps", "--sk", triple["sk"], "--in", ct, "--out", tmp_path / "ss2"),
        ("verify", "--vk", triple["vk"], "--in", msg, "--sig", sig),
    )
    assert codes == [0, 0]
    assert (tmp_path / "ss2").read_bytes() == (tmp_path / "ss").read_bytes()
    assert "permcrypt.kat" not in loaded and "secrets" not in loaded
    assert "permcrypt.codec" in loaded


_KEM_MODULES = {"permcrypt." + name for name in (
    "cli", "errors", "codec", "hppk_kem", "hidden_ring", "ring_arith")}
_DS_MODULES = _KEM_MODULES | {"permcrypt.hppk_ds", "permcrypt.keystream"}


@pytest.fixture
def hppk_commands(tmp_path, triple):
    """Each HPPK command's argv over the seeded level-I triple, its inputs written."""
    msg, ct, sig = tmp_path / "msg", tmp_path / "ct", tmp_path / "sig"
    msg.write_bytes(b"signed and sealed")
    seed = ("--seed-hex", "beef", "--unsafe-seed")
    assert run("encaps", "--pk", triple["pk"], "--out", ct, "--ss", tmp_path / "ss", *seed) == 0
    assert run("sign", "--sk", triple["sk"], "--vk", triple["vk"], "--in", msg, "--out", sig,
               *seed) == 0
    return {
        "keygen": ("keygen", "--level", "I", "--sk", tmp_path / "sk2", "--pk", tmp_path / "pk2",
                   "--vk", tmp_path / "vk2", *seed),
        "encaps": ("encaps", "--pk", triple["pk"], "--out", tmp_path / "ct2",
                   "--ss", tmp_path / "ss2", *seed),
        "decaps": ("decaps", "--sk", triple["sk"], "--in", ct, "--out", tmp_path / "ss3"),
        "sign": ("sign", "--sk", triple["sk"], "--vk", triple["vk"], "--in", msg,
                 "--out", tmp_path / "sig2", *seed),
        "verify": ("verify", "--vk", triple["vk"], "--in", msg, "--sig", sig),
    }


@pytest.mark.parametrize("command,expected", [
    ("decaps", _KEM_MODULES),
    ("encaps", _KEM_MODULES | {"permcrypt.keystream"}),
    ("keygen", _DS_MODULES),
    ("sign", _DS_MODULES),
    ("verify", _DS_MODULES),
])
def test_each_hppk_command_loads_only_the_modules_it_runs(hppk_commands, command, expected):
    # No HPPK command loads qpp; encaps and decaps never load hppk_ds.
    codes, loaded = _run_fresh(hppk_commands[command])
    assert codes == [0]
    assert {m for m in loaded if m.startswith("permcrypt.")} == expected


def test_decaps_loads_no_hashlib(hppk_commands):
    # hashlib comes in only with keystream, which decapsulation never calls.
    codes, loaded = _run_fresh(hppk_commands["decaps"])
    assert codes == [0] and "hashlib" not in loaded


def test_key_and_message_commands_load_no_dataclasses_or_inspect(tmp_path, hppk_commands):
    # The value objects are plain classes, so no command pays for dataclasses and the
    # inspect, ast and dis it imports.
    pad, msg, enc = tmp_path / "pad", tmp_path / "msg", tmp_path / "enc"
    codes, loaded = _run_fresh(
        *hppk_commands.values(),
        ("qpp-keygen", "--out", pad, "--seed-hex", "beef", "--unsafe-seed"),
        ("qpp-encrypt", "--pad", pad, "--key-hex", "c0ffee", "--in", msg, "--out", enc),
        ("qpp-decrypt", "--pad", pad, "--key-hex", "c0ffee", "--in", enc,
         "--out", tmp_path / "dec"),
    )
    assert codes == [0] * 8 and (tmp_path / "dec").read_bytes() == msg.read_bytes()
    assert loaded.isdisjoint({"dataclasses", "inspect"}), loaded


def test_decaps_loads_no_typing_without_site(hppk_commands):
    # Without site, nothing else brings typing in: the HPPK modules must not either.
    codes, loaded = _run_fresh(hppk_commands["decaps"], flags=("-S",))
    assert codes == [0] and "typing" not in loaded


# --- fuzzed argument and file vectors ----------------------------------------


def _fuzz_files(tmp_path):
    """One seeded key set and its envelopes, plus broken and foreign inputs."""
    seed = ("--seed-hex", "beef", "--unsafe-seed")
    f = {name: tmp_path / name for name in (
        "sk", "pk", "vk", "ct", "ss", "sig", "pad", "stream", "msg", "empty", "kats")}
    f["msg"].write_bytes(b"fuzzed message")
    f["empty"].write_bytes(b"")
    assert run("keygen", "--level", "I", "--sk", f["sk"], "--pk", f["pk"], "--vk", f["vk"],
               *seed) == 0
    assert run("encaps", "--pk", f["pk"], "--out", f["ct"], "--ss", f["ss"], *seed) == 0
    assert run("sign", "--sk", f["sk"], "--vk", f["vk"], "--in", f["msg"], "--out", f["sig"],
               *seed) == 0
    assert run("qpp-keygen", "--n", 4, "--M", 3, "--out", f["pad"], *seed) == 0
    assert run("qpp-encrypt", "--pad", f["pad"], "--key-hex", "c0ffee", "--in", f["msg"],
               "--out", f["stream"]) == 0
    assert run("kat", "emit", "--out", f["kats"], "--config", "DS-I", "--count", 1, *seed) == 0
    for name in ("sk", "pk", "vk", "ct", "sig", "pad", "stream"):
        data = f[name].read_bytes()
        for cut in (3, 11, len(data) - 1):
            (tmp_path / f"{name}-{cut}").write_bytes(data[:cut])
    f["kat"] = f["kats"] / "DS-I.kat"
    inputs = [p for p in tmp_path.iterdir() if p.is_file()]
    return f, inputs + [f["kats"], f["kat"], tmp_path, tmp_path / "missing"]


def test_main_answers_every_fuzzed_vector_with_an_exit_code(tmp_path):
    # Each flag mostly gets a value that works, so vectors reach past the first
    # refusal; the rest are bad or empty hex, out-of-range ints, missing paths,
    # directories, empty files, truncated envelopes and envelopes of a foreign kind.
    rng = random.Random(15)
    work = tmp_path / "in"
    work.mkdir()
    files, inputs = _fuzz_files(work)
    outputs = [tmp_path / "out", work, tmp_path / "missing" / "out"]

    def either(good, values):
        return lambda: good if rng.random() < 0.7 else rng.choice(values)

    def src(name):
        return either(files[name], inputs)

    dst = either(tmp_path / "out", outputs)
    key = either("c0ffee", ["beef", "", "zz", "abc", "00"])
    seed = {"--seed-hex": key, "--unsafe-seed": None}
    flags = {
        ("keygen",): {"--level": either("I", ["III", "V", "II"]),
                      "--sk": dst, "--pk": dst, "--vk": dst, **seed},
        ("encaps",): {"--pk": src("pk"), "--out": dst, "--ss": dst, **seed},
        ("decaps",): {"--sk": src("sk"), "--in": src("ct"), "--out": dst},
        ("sign",): {"--sk": src("sk"), "--vk": src("vk"), "--in": src("msg"), "--out": dst,
                    **seed},
        ("verify",): {"--vk": src("vk"), "--in": src("msg"), "--sig": src("sig")},
        ("qpp-keygen",): {"--out": dst, "--n": either(4, [-1, 0, 1, 12, "x"]),
                          "--M": either(3, [-1, 0, 1, 16, ""]), **seed},
        ("qpp-encrypt",): {"--pad": src("pad"), "--key-hex": key, "--in": src("msg"),
                           "--out": dst, "--mode": either("random", ["sequential", "other"])},
        ("qpp-decrypt",): {"--pad": src("pad"), "--key-hex": key, "--in": src("stream"),
                           "--out": dst},
        ("kat", "emit"): {"--out": dst, "--config": either("DS-I", ["KEM-I-m2", "all", "X"]),
                          "--count": either(1, [-1, 0, 2, "two"]), **seed},
        ("kat", "check"): {"--in": src("kat")},
        ("info", "entropy"): {"--n": either(8, [-1, 0, 1, 12]), "--M": either(3, [-1, 0, 16]),
                              "--kind": either("matrix", ["arithmetic", "other"])},
        ("info", "complexity"): {"--L": either(72, [-1, 0, 1, 2, "L"])},
    }
    for _ in range(300):
        command = rng.choice(list(flags))
        argv = list(command)
        for flag, value in flags[command].items():
            if rng.random() < 0.95:  # now and then a required flag goes missing
                argv += [flag] if value is None else [flag, value()]
        if rng.random() < 0.05:
            argv.append(rng.choice(["--bogus", "-h", "extra"]))
        assert run(*argv) in (0, 1, 2), argv
