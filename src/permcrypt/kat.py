"""Known-answer-test (KAT) files: line-oriented `name = value` ASCII with
lowercase hex fields, one blank line between vectors.  A file is checked by
emitting it again from its header, so emit and check share one derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import codec
from .errors import FormatError, PermcryptError
from .hppk_ds import ds_keygen, ds_params, sign, verify
from .hppk_kem import KemParams, decapsulate, encapsulate, kem_params, keygen
from .keystream import TAG_HPPK_HASH, TAG_HPPK_KEYGEN, TAG_HPPK_U, TAG_KAT, KeystreamState

KAT_CONFIGS = {
    "KEM-I-m2": ("kem", "I", 2),
    "KEM-I-m3": ("kem", "I", 3),
    "KEM-III-m2": ("kem", "III", 2),
    "KEM-III-m3": ("kem", "III", 3),
    "KEM-V-m2": ("kem", "V", 2),
    "KEM-V-m3": ("kem", "V", 3),
    "DS-I": ("ds", "I", 1),
    "DS-III": ("ds", "III", 1),
    "DS-V": ("ds", "V", 1),
}

_KAT_MESSAGE_LEN = 32
_HEADER_FIELDS = ("alg", "vectors", "seed")


def kat_params(label: str) -> KemParams:
    try:
        scheme, level, noise = KAT_CONFIGS[label]
    except KeyError:
        raise FormatError(f"unknown KAT configuration {label!r}") from None
    return ds_params(level) if scheme == "ds" else kem_params(level, noise)


@dataclass
class KatReport:
    """Outcome of re-running a KAT file; failures are (count, field) pairs."""

    label: str
    total: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _kat_vector(label: str, params: KemParams, vseed: bytes) -> dict:
    scheme = KAT_CONFIGS[label][0]
    fields: dict = {"seed": vseed}
    if scheme == "kem":
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


def emit_kat(seed: bytes, label: str, count: int = 25) -> str:
    """Deterministic KAT file text for one configuration."""
    params = kat_params(label)
    seeds = KeystreamState(seed + b"|" + label.encode("ascii"), TAG_KAT)
    lines = [
        "# permcrypt known-answer tests",
        f"alg = {label}",
        f"vectors = {count}",
        f"seed = {seed.hex()}",
        "",
    ]
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


def _lower_hex(value: str) -> bytes:
    """Hex as emit_kat writes it: lowercase, no separators."""
    data = bytes.fromhex(value)
    if data.hex() != value:
        raise ValueError(value)
    return data


def _decimal(value: str) -> int:
    """An integer as emit_kat writes it: canonical decimal, no "+" or padding."""
    number = int(value)
    if str(number) != value:
        raise ValueError(value)
    return number


def _parse_kat(text: str):
    """Header dict and one dict per vector; `count` is parsed as an int."""
    header: dict = {}
    vectors: list = []
    current = header
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if " = " not in line:
            raise FormatError(f"malformed KAT line: {raw!r}")
        key, value = line.split(" = ", 1)
        if key == "count":
            current = {"count": _kat_field(_decimal, value, "count")}
            vectors.append(current)
        elif key in current:
            raise FormatError(f"KAT field {key!r} is repeated: {raw!r}")
        else:
            current[key] = value
    for need in _HEADER_FIELDS:
        if need not in header:
            raise FormatError(f"KAT header is missing {need!r}")
    for name in header:
        if name not in _HEADER_FIELDS:
            raise FormatError(f"unexpected KAT header field {name!r}")
    return header, vectors


def check_kat(text: str) -> KatReport:
    """Re-emit a KAT file from its header and compare every vector field."""
    header, vectors = _parse_kat(text)
    label = header["alg"]
    kat_params(label)  # an unknown label is reported before the count checks
    count = _kat_field(_decimal, header["vectors"], "vectors")
    if count < 1:
        raise FormatError(f"KAT field 'vectors' must be at least 1, got {count}")
    seed = _kat_field(_lower_hex, header["seed"], "seed")
    report = KatReport(label=label, total=count)
    if len(vectors) != count:
        report.failures.append((-1, "vectors"))
        return report
    _, expected = _parse_kat(emit_kat(seed, label, count))
    for i, (got, want) in enumerate(zip(vectors, expected)):
        # The emitted fields in order, then any field emit never writes.
        for name in {**want, **got}:
            if got.get(name) != want.get(name):
                report.failures.append((i, name))
                break
    return report

