"""Command-line interface: key lifecycle, file encryption, KATs, reports.

Exit codes: 0 success, 1 cryptographic reject (failed verify/decapsulation
or a failed KAT run), 2 usage or format error.

Each handler imports the modules it runs, so a QPP command never loads the
HPPK schemes, their codec or the KAT module, and an HPPK command never
loads `qpp` or the KAT module; `encaps` and `decaps` never load `hppk_ds`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import FormatError, ParameterError, PermcryptError

_SEED_BYTES = 32
# hppk_kem.LEVELS, qpp._MODES and ("all", *kat.KAT_CONFIGS), spelled out: importing them
# loads the HPPK stack or the pad cipher.
_LEVELS = ("I", "III", "V")
_MODES = ("random", "sequential")
_KAT_LABELS = ("all", "KEM-I-m2", "KEM-I-m3", "KEM-III-m2", "KEM-III-m3", "KEM-V-m2",
               "KEM-V-m3", "DS-I", "DS-III", "DS-V")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permcrypt",
        description="Permutation-pad cipher and hidden-ring KEM/signature tool",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, handler, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    def add_seed_flags(p):
        p.add_argument("--seed-hex", metavar="HEX",
                       help="deterministic seed (test only; requires --unsafe-seed)")
        p.add_argument("--unsafe-seed", action="store_true",
                       help="acknowledge that a fixed seed is unsafe outside tests")

    p = leaf(sub, "keygen", _cmd_keygen, help="generate the key triple (sk, pk, vk)")
    p.add_argument("--level", choices=_LEVELS, default="III")
    p.add_argument("--sk", required=True, help="private key output path")
    p.add_argument("--pk", required=True, help="encapsulation public key output path")
    p.add_argument("--vk", required=True, help="verification public key output path")
    add_seed_flags(p)

    p = leaf(sub, "encaps", _cmd_encaps, help="encapsulate a fresh shared secret")
    p.add_argument("--pk", required=True)
    p.add_argument("--out", required=True, help="ciphertext output path")
    p.add_argument("--ss", required=True, help="shared secret output path")
    add_seed_flags(p)

    p = leaf(sub, "decaps", _cmd_decaps, help="decapsulate a ciphertext")
    p.add_argument("--sk", required=True)
    p.add_argument("--in", dest="infile", required=True, help="ciphertext path")
    p.add_argument("--out", required=True, help="shared secret output path")

    p = leaf(sub, "sign", _cmd_sign, help="sign a message file")
    p.add_argument("--sk", required=True)
    p.add_argument("--vk", required=True, help="verification key; each signature is "
                   "checked against it before it is written")
    p.add_argument("--in", dest="infile", required=True, help="message path")
    p.add_argument("--out", required=True, help="signature output path")
    add_seed_flags(p)

    p = leaf(sub, "verify", _cmd_verify, help="verify a signature over a message file")
    p.add_argument("--vk", required=True)
    p.add_argument("--in", dest="infile", required=True, help="message path")
    p.add_argument("--sig", required=True, help="signature path")

    p = leaf(sub, "qpp-keygen", _cmd_qpp_keygen, help="generate a permutation pad")
    p.add_argument("--out", required=True, help="pad output path")
    p.add_argument("--n", type=int, default=8, help="block size in bits")
    p.add_argument("--M", type=int, default=64, help="number of pad permutations")
    add_seed_flags(p)

    key_help = ("shared session key driving the keystream; a stream carries no nonce, "
                "so files under one pad and key show which of their blocks are equal")
    p = leaf(sub, "qpp-encrypt", _cmd_qpp_encrypt, help="encrypt a file with a pad")
    p.add_argument("--pad", required=True)
    p.add_argument("--key-hex", required=True, metavar="HEX", help=key_help)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=_MODES, default=_MODES[0])

    p = leaf(sub, "qpp-decrypt", _cmd_qpp_decrypt, help="decrypt a pad-encrypted file")
    p.add_argument("--pad", required=True)
    p.add_argument("--key-hex", required=True, metavar="HEX", help=key_help)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("kat", help="emit or check known-answer-test files")
    kat_sub = p.add_subparsers(dest="kat_command", required=True)
    pe = leaf(kat_sub, "emit", _cmd_kat_emit)
    pe.add_argument("--out", required=True, help="output directory")
    pe.add_argument("--config", default="all",
                    choices=_KAT_LABELS, help="configuration label")
    pe.add_argument("--count", type=int, default=25)
    add_seed_flags(pe)
    pc = leaf(kat_sub, "check", _cmd_kat_check)
    pc.add_argument("--in", dest="infile", required=True, help=".kat file or directory")

    p = sub.add_parser("info", help="entropy and attack-complexity figures")
    info_sub = p.add_subparsers(dest="info_command", required=True)
    pe = leaf(info_sub, "entropy", _cmd_info_entropy,
              help="bits of key space of the (n, M) pad family; a pad drawn from one "
                   "32-byte seed, as qpp-keygen draws it, carries at most 256 bits")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--M", type=int, required=True)
    pe.add_argument("--kind", choices=("matrix", "arithmetic"), default="matrix")
    pc = leaf(info_sub, "complexity", _cmd_info_complexity,
              help="log2 of a brute-force search over both rings' (multiplier, modulus) "
                   "pairs, not a lattice-attack bound (see the README's attack paragraphs "
                   "and tests/test_attacks.py)")
    pc.add_argument("--L", type=int, required=True)

    return parser


def _seed_material(args) -> bytes:
    """The seed of a command's keystreams: --seed-hex, else 32 bytes from the OS."""
    if args.seed_hex is None:
        import secrets

        return secrets.token_bytes(_SEED_BYTES)
    if not args.unsafe_seed:
        raise ParameterError("--seed-hex is test-only; pass --unsafe-seed to use it")
    try:
        return bytes.fromhex(args.seed_hex)
    except ValueError:
        raise ParameterError("--seed-hex is not valid hex") from None


def _cmd_keygen(args) -> int:
    from . import codec
    from .hppk_ds import ds_keygen, ds_params
    from .keystream import TAG_HPPK_KEYGEN, KeystreamState

    params = ds_params(args.level)
    sk, pk, vk = ds_keygen(params, KeystreamState(_seed_material(args), TAG_HPPK_KEYGEN))
    Path(args.sk).write_bytes(codec.encode_kem_private(sk, params))
    Path(args.pk).write_bytes(codec.encode_kem_public(pk, params))
    Path(args.vk).write_bytes(codec.encode_verification_key(vk, params))
    return 0


def _cmd_encaps(args) -> int:
    from . import codec
    from .hppk_kem import encapsulate
    from .keystream import TAG_HPPK_U, KeystreamState

    pk, params = codec.decode_kem_public(Path(args.pk).read_bytes())
    secret, ct = encapsulate(pk, params, KeystreamState(_seed_material(args), TAG_HPPK_U))
    Path(args.out).write_bytes(codec.encode_kem_ciphertext(ct, params))
    Path(args.ss).write_bytes(codec.encode_secret(secret, params))
    return 0


def _cmd_decaps(args) -> int:
    from . import codec
    from .hppk_kem import decapsulate

    sk, params = codec.decode_kem_private(Path(args.sk).read_bytes())
    ct, ct_params = codec.decode_kem_ciphertext(Path(args.infile).read_bytes())
    if ct_params != params:
        raise FormatError("key and ciphertext parameter sets differ")
    secret = decapsulate(sk, ct, params)
    Path(args.out).write_bytes(codec.encode_secret(secret, params))
    return 0


def _cmd_sign(args) -> int:
    from . import codec
    from .hppk_ds import sign
    from .keystream import TAG_HPPK_HASH, KeystreamState

    sk, params = codec.decode_kem_private(Path(args.sk).read_bytes())
    vk, vk_params = codec.decode_verification_key(Path(args.vk).read_bytes())
    if vk_params != params:
        raise FormatError("key and verification key parameter sets differ")
    message = Path(args.infile).read_bytes()
    sig = sign(sk, params, message, KeystreamState(_seed_material(args), TAG_HPPK_HASH), vk)
    Path(args.out).write_bytes(codec.encode_signature(sig, params))
    return 0


def _cmd_verify(args) -> int:
    from . import codec
    from .hppk_ds import verify

    vk, params = codec.decode_verification_key(Path(args.vk).read_bytes())
    sig, sig_params = codec.decode_signature(Path(args.sig).read_bytes())
    if sig_params != params:
        raise FormatError("signature and verification key parameter sets differ")
    message = Path(args.infile).read_bytes()
    if verify(vk, params, message, sig):
        print("signature accepted")
        return 0
    print("signature rejected", file=sys.stderr)
    return 1


def _cmd_qpp_keygen(args) -> int:
    from .qpp import encode_pad, generate_pad

    pad = generate_pad(_seed_material(args), args.n, args.M)
    Path(args.out).write_bytes(encode_pad(pad))
    return 0


def _session_key(args) -> bytes:
    try:
        key = bytes.fromhex(args.key_hex)
    except ValueError:
        raise ParameterError("--key-hex is not valid hex") from None
    if not key:
        raise ParameterError("--key-hex must not be empty")
    return key


def _cmd_qpp_encrypt(args) -> int:
    from .qpp import decode_pad, encode_qpp_stream, encrypt_stream, pad_bits

    pad = decode_pad(Path(args.pad).read_bytes())
    padded = pad_bits(Path(args.infile).read_bytes(), pad.n)
    body = encrypt_stream(pad, _session_key(args), padded, args.mode)
    Path(args.out).write_bytes(encode_qpp_stream(body, pad.n, pad.size, args.mode))
    return 0


def _cmd_qpp_decrypt(args) -> int:
    from .qpp import decode_pad, decode_qpp_stream, decrypt_stream, unpad_bits

    pad = decode_pad(Path(args.pad).read_bytes())
    body, n, pad_size, mode = decode_qpp_stream(Path(args.infile).read_bytes())
    if (n, pad_size) != (pad.n, pad.size):
        raise FormatError("stream was produced with a different pad shape")
    padded = decrypt_stream(pad, _session_key(args), body, mode)
    Path(args.out).write_bytes(unpad_bits(padded, n))
    return 0


def _cmd_kat_emit(args) -> int:
    from . import kat

    seed = _seed_material(args)
    labels = list(kat.KAT_CONFIGS) if args.config == "all" else [args.config]
    # Every file is emitted before --out is made, so a refused count leaves nothing.
    texts = {label: kat.emit_kat(seed, label, args.count) for label in labels}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for label, text in texts.items():
        path = out_dir / f"{label}.kat"
        path.write_bytes(text.encode("ascii"))
        print(f"wrote {path}")
    return 0


def _cmd_kat_check(args) -> int:
    from . import kat

    path = Path(args.infile)
    files = sorted(path.glob("*.kat")) if path.is_dir() else [path]
    if not files:
        raise ParameterError(f"no .kat files under {path}")
    failed = False
    for file in files:
        try:
            text = file.read_bytes().decode("ascii")
        except UnicodeDecodeError:
            raise FormatError(f"{file} is not an ASCII KAT file") from None
        report = kat.check_kat(text)
        if report.ok:
            print(f"{report.label}: ok ({report.total} vectors)")
        else:
            failed = True
            for count, name in report.failures:
                print(f"{report.label}: FAIL at count={count} field={name}",
                      file=sys.stderr)
    return 1 if failed else 0


def _cmd_info_entropy(args) -> int:
    from .qpp import pad_entropy

    print(round(pad_entropy(args.n, args.M, args.kind)))
    return 0


def _cmd_info_complexity(args) -> int:
    from .hppk_kem import attack_complexity

    print(f"{attack_complexity(args.L):.2f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.handler(args)
    except (PermcryptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (FormatError, ParameterError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
