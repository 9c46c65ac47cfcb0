"""Known-answer-test (KAT) files: a file is byte for byte what `emit_kat`
writes, up to a missing final newline.  `check_kat` emits it again from its
header and compares the text.  A header emit would not write is a
`FormatError` (CLI exit 2); a differing vector block is a failure naming
its count and the field on its first differing line (CLI exit 1).
"""

from __future__ import annotations

from itertools import zip_longest

from . import codec
from .errors import FormatError, ParameterError, PermcryptError, _check_bytes, _check_type
from .hppk_ds import ds_keygen, ds_params, sign, verify
from .hppk_kem import LEVELS, KemParams, decapsulate, encapsulate, kem_params, keygen
from .keystream import (
    TAG_HPPK_HASH,
    TAG_HPPK_KEYGEN,
    TAG_HPPK_U,
    TAG_KAT,
    KeystreamState,
)

# Each label's shipped set; a "KEM-" label emits KEM vectors, a "DS-" label signatures.
KAT_CONFIGS = {
    **{f"KEM-{level}-m{m}": kem_params(level, m) for level in LEVELS for m in (2, 3)},
    **{f"DS-{level}": ds_params(level) for level in LEVELS},
}

_KAT_MESSAGE_LEN = 32
_HEADER_FIELDS = ("alg", "vectors", "seed")


def kat_params(label: str) -> KemParams:
    try:
        return KAT_CONFIGS[label]
    except KeyError:
        raise FormatError(f"unknown KAT configuration {label!r}") from None


class KatReport:
    """Outcome of re-running a KAT file; failures are (count, field) pairs."""

    def __init__(self, label: str, total: int, failures: list | None = None):
        self.label = label
        self.total = total
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures


def _kat_vector(label: str, params: KemParams, vseed: bytes) -> dict:
    fields: dict = {"seed": vseed}
    if label.startswith("KEM-"):
        sk, pk = keygen(params, KeystreamState(vseed, TAG_HPPK_KEYGEN))
        secret, ct = encapsulate(pk, params, KeystreamState(vseed, TAG_HPPK_U))
        if decapsulate(sk, ct, params) != secret:
            raise PermcryptError("internal: KAT round trip failed")
        fields["pk"] = codec.encode_kem_public(pk, params)
        fields["sk"] = codec.encode_kem_private(sk, params)
        fields["ct"] = codec.encode_kem_ciphertext(ct, params)
        fields["ss"] = codec.encode_secret(secret, params)
    else:
        sk, pk, vk = ds_keygen(params, KeystreamState(vseed, TAG_HPPK_KEYGEN))
        msg = KeystreamState(vseed, TAG_KAT).next_bytes(_KAT_MESSAGE_LEN)
        sig = sign(sk, params, msg, KeystreamState(vseed, TAG_HPPK_HASH), vk=vk)
        if not verify(vk, params, msg, sig):
            raise PermcryptError("internal: KAT signature did not verify")
        fields["pk"] = codec.encode_verification_key(vk, params)
        fields["sk"] = codec.encode_kem_private(sk, params)
        fields["msg"] = msg
        fields["sig"] = codec.encode_signature(sig, params)
    return fields


def _kat_header(seed: bytes, label: str, count: int) -> str:
    return "\n".join([
        "# permcrypt known-answer tests",
        f"alg = {label}",
        f"vectors = {count}",
        f"seed = {seed.hex()}",
    ])


def emit_kat(seed: bytes, label: str, count: int) -> str:
    """Deterministic KAT file text for one configuration."""
    params = kat_params(label)
    # A plain int of at least 1 is the only `vectors` line check_kat accepts: not True or 2.0.
    if type(count) is not int or count < 1:
        raise ParameterError(f"KAT count must be an int of at least 1, got {count!r}")
    _check_bytes(seed, "KAT seed")
    seed = bytes(seed)
    seeds = KeystreamState(seed + b"|" + label.encode("ascii"), TAG_KAT)
    lines = [_kat_header(seed, label, count), ""]
    for i in range(count):
        fields = _kat_vector(label, params, seeds.next_bytes(32))
        lines.append(f"count = {i}")
        for name, value in fields.items():
            lines.append(f"{name} = {value.hex()}")
        lines.append("")
    return "\n".join(lines)


def _kat_field(convert, value: str, name: str):
    try:
        return convert(value)
    except ValueError:
        raise FormatError(f"malformed KAT field {name!r}: {value!r}") from None


def _differing_field(got: str, want: str) -> str:
    """Field on the first line where `got` departs from `want`: the one emit
    writes there, or the extra line's own name past the end of `want`."""
    pairs = zip_longest(got.split("\n"), want.split("\n"))
    mine, theirs = next(pair for pair in pairs if pair[0] != pair[1])
    return (mine if theirs is None else theirs).partition(" = ")[0]


def _parse_header(head: str):
    """`alg`, `vectors` and `seed` of a header, which must be the one emit writes."""
    fields: dict = {}
    for line in head.split("\n"):
        if line.startswith("#"):
            continue
        key, _, value = line.partition(" = ")
        if key not in _HEADER_FIELDS:
            raise FormatError(f"unexpected KAT header field {key!r}")
        if key in fields:
            raise FormatError(f"KAT field {key!r} is repeated: {line!r}")
        fields[key] = value
    for need in _HEADER_FIELDS:
        if need not in fields:
            raise FormatError(f"KAT header is missing {need!r}")
    label = fields["alg"]
    kat_params(label)  # an unknown label is reported before the count checks
    count = _kat_field(int, fields["vectors"], "vectors")
    if count < 1:
        raise FormatError(f"KAT field 'vectors' must be at least 1, got {count}")
    seed = _kat_field(bytes.fromhex, fields["seed"], "seed")
    want = _kat_header(seed, label, count)
    if head != want:
        name = _differing_field(head, want)
        raise FormatError(f"KAT header field {name!r} is not as emit writes it")
    return label, count, seed


def check_kat(text: str) -> KatReport:
    """Re-emit a KAT file from its header and compare it, block by block."""
    _check_type(text, str, "KAT text")
    head, *blocks = text.removesuffix("\n").split("\n\n")
    label, count, seed = _parse_header(head)
    report = KatReport(label=label, total=count)
    if len(blocks) != count:  # before deriving anything: `vectors` may be huge
        report.failures.append((-1, "vectors"))
        return report
    _, *expected = emit_kat(seed, label, count).removesuffix("\n").split("\n\n")
    for i, (got, want) in enumerate(zip(blocks, expected)):
        if got != want:
            report.failures.append((i, _differing_field(got, want)))
    return report
