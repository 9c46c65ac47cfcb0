import hashlib
import random

import pytest

from permcrypt import kat
from permcrypt.errors import FormatError, ParameterError


def _lines(text, prefix):
    return [line for line in text.splitlines() if line.startswith(prefix)]


def test_kat_emit_then_check_passes():
    text = kat.emit_kat(b"kat-seed", "KEM-I-m2", count=3)
    report = kat.check_kat(text)
    assert report.ok and report.total == 3


def test_kat_detects_and_locates_a_corrupted_byte():
    text = kat.emit_kat(b"kat-seed", "KEM-I-m2", count=3)
    lines = text.splitlines()
    target = [i for i, l in enumerate(lines) if l.startswith("ct = ")][1]
    field, value = lines[target].split(" = ")
    flipped = "0" if value[10] != "0" else "f"
    lines[target] = f"{field} = {value[:10]}{flipped}{value[11:]}"
    report = kat.check_kat("\n".join(lines))
    assert report.failures == [(1, "ct")]


def test_kat_detects_edited_seed_line():
    text = kat.emit_kat(b"kat-seed", "DS-I", count=2)
    mangled = text.replace("count = 0\nseed = ", "count = 0\nseed = 00", 1)
    report = kat.check_kat(mangled)
    assert (0, "seed") in report.failures


def test_kat_detects_a_count_out_of_position():
    text = kat.emit_kat(b"kat-seed", "DS-I", count=2)
    mangled = text.replace("count = 0\n", "count = 7\n", 1)
    assert mangled != text
    assert kat.check_kat(mangled).failures == [(0, "count")]


def test_kat_reports_a_missing_field():
    text = kat.emit_kat(b"kat-seed", "DS-I", count=2)
    sig_line = _lines(text, "sig = ")[1]
    assert kat.check_kat(text.replace(sig_line + "\n", "")).failures == [(1, "sig")]


def test_kat_rejects_an_uppercase_vector_seed():
    # The format is lowercase hex, though bytes.fromhex would accept either case.
    text = kat.emit_kat(b"kat-seed", "DS-I", count=2)
    value = _lines(text, "seed = ")[2].split(" = ")[1]  # [0] is the header seed
    assert kat.check_kat(text.replace(value, value.upper())).failures == [(1, "seed")]


@pytest.mark.parametrize("line,name", [("junk = zz", "junk"), ("ct = 00", "ct")])
def test_kat_reports_a_field_emit_never_writes(line, name):
    # DS vectors carry no `ct`; neither field may pass unchecked.
    text = kat.emit_kat(b"kat-seed", "DS-I", count=2)
    sig_line = _lines(text, "sig = ")[1]
    extended = text.replace(sig_line, f"{sig_line}\n{line}")
    assert kat.check_kat(extended).failures == [(1, name)]


def test_kat_rejects_an_unexpected_header_field():
    text = kat.emit_kat(b"kat-seed", "DS-I", count=1)
    with pytest.raises(FormatError, match="'junk'"):
        kat.check_kat(text.replace("alg = ", "junk = zz\nalg = ", 1))


@pytest.mark.parametrize("value", ["00ab 22 cd", "00AB22CD", "00aB22cd"])
def test_kat_header_seed_must_be_lowercase_hex(value):
    # emit_kat writes seed.hex(); bytes.fromhex would also take these.
    text = kat.emit_kat(bytes.fromhex("00ab22cd"), "DS-I", count=1)
    mangled = text.replace("seed = 00ab22cd\n", f"seed = {value}\n", 1)
    assert mangled != text
    with pytest.raises(FormatError, match="'seed'"):
        kat.check_kat(mangled)


@pytest.mark.parametrize("name,nth", [("seed", 0), ("sig", 1)])  # header seed, vector 1's sig
def test_kat_rejects_a_repeated_field(name, nth):
    # A later line must not silently override an earlier, corrupted one.
    text = kat.emit_kat(b"kat-seed", "DS-I", count=2)
    line = _lines(text, f"{name} = ")[nth]
    value = line.split(" = ")[1]
    corrupted = f"{name} = {'0' if value[0] != '0' else 'f'}{value[1:]}"
    mangled = text.replace(line, f"{corrupted}\n{line}")
    if nth == 0:  # the header is parsed field by field
        with pytest.raises(FormatError, match=f"'{name}' is repeated"):
            kat.check_kat(mangled)
    else:  # a vector block is compared as text
        assert kat.check_kat(mangled).failures == [(nth, name)]


@pytest.mark.parametrize("vectors", ["0", "-3"])
def test_kat_rejects_a_file_with_no_vectors(vectors):
    with pytest.raises(FormatError, match="vectors"):
        kat.check_kat(f"alg = DS-I\nvectors = {vectors}\nseed = 00\n")


@pytest.mark.parametrize("seed,count", [
    (b"kat-seed", 0), (b"kat-seed", -3), (b"kat-seed", 2.0), (b"kat-seed", True),
    ("kat-seed", 1), (None, 1),
], ids=["zero-count", "negative-count", "float-count", "bool-count", "str-seed", "none-seed"])
def test_kat_emit_refuses_what_check_would_as_parameter_errors(seed, count):
    # None of these could head a file that check_kat accepts.
    with pytest.raises(ParameterError):
        kat.emit_kat(seed, "DS-I", count)


@pytest.mark.parametrize("text", [None, b"alg = DS-I"], ids=["none", "bytes"])
def test_kat_check_refuses_non_text_as_a_parameter_error(text):
    with pytest.raises(ParameterError, match="^KAT text must be str, not "):
        kat.check_kat(text)


def test_kat_counts_vectors_before_deriving_any(monkeypatch):
    # A one-line edit must not make check derive 10^9 key pairs.
    text = kat.emit_kat(b"kat-seed", "DS-I", count=2)

    def derive(*args):
        raise AssertionError("a vector was derived")

    monkeypatch.setattr(kat, "_kat_vector", derive)
    huge = text.replace("vectors = 2\n", "vectors = 1000000000\n", 1)
    assert kat.check_kat(huge).failures == [(-1, "vectors")]


def _accepted(text):
    try:
        return kat.check_kat(text).ok
    except FormatError:
        return False


_EMIT_NEVER_WRITES = {
    "indented-pk": lambda t: t.replace("\npk = ", "\n  pk = ", 1),
    "comment-in-vector": lambda t: t.replace("\nsig = ", "\n# note\nsig = ", 1),
    "extra-blank-line": lambda t: t.replace("\n\ncount = 1", "\n\n\ncount = 1"),
    "missing-blank-line": lambda t: t.replace("\n\ncount = 1", "\ncount = 1"),
    "alg-vectors-swapped": lambda t: t.replace("alg = DS-I\nvectors = 2", "vectors = 2\nalg = DS-I"),
    "no-banner": lambda t: t.replace("# permcrypt known-answer tests\n", ""),
    "crlf": lambda t: t.replace("\n", "\r\n"),
}


@pytest.mark.parametrize("variant", list(_EMIT_NEVER_WRITES))
def test_kat_refuses_text_emit_never_writes(variant):
    text = kat.emit_kat(b"kat-seed", "DS-I", count=2)
    mangled = _EMIT_NEVER_WRITES[variant](text)
    assert mangled != text
    assert not _accepted(mangled)


def test_kat_accepts_only_the_emitted_text():
    # Seeded mutations; check returns a report or raises FormatError, and
    # passes only the emitted text, with or without its final newline.
    text = kat.emit_kat(b"kat-seed", "DS-I", count=2)
    line_starts = [0] + [i + 1 for i, c in enumerate(text[:-1]) if c == "\n"]
    rng = random.Random(2024)
    for case in range(400):
        at = rng.randrange(len(text))
        char = rng.choice("0123456789abcdefAF =#-\n\r\t")
        line = rng.choice(line_starts)
        mutated = rng.choice([
            lambda: text[:at] + char + text[at:],
            lambda: text[:at] + text[at + 1:],
            lambda: text[:at] + char + text[at + 1:],
            lambda: text[:line] + "# note\n" + text[line:],
            lambda: text[:line] + "\n" + text[line:],
            lambda: text[:line] + "  " + text[line:],
            lambda: text.replace("\n", "\r\n"),
        ])()
        assert _accepted(mutated) == (mutated.removesuffix("\n") == text[:-1]), case


def test_kat_all_configurations_smoke():
    for label in kat.KAT_CONFIGS:
        report = kat.check_kat(kat.emit_kat(b"matrix-seed", label, count=1))
        assert report.ok, label


def test_kat_rejects_unknown_label():
    with pytest.raises(FormatError):
        kat.kat_params("KEM-IX-m9")
    with pytest.raises(FormatError):
        kat.emit_kat(b"s", ["x"], 1)  # an unhashable label
    with pytest.raises(FormatError):
        kat.check_kat("alg = nope\nvectors = 0\nseed = 00\n")


# SHA-256 of emit_kat(b"c10-kat-seed", label, 5).  Seeded KAT bytes are a
# compatibility invariant: any change to key generation, encapsulation,
# signing or their encodings shows up here.
PINNED_KAT_SHA256 = {
    "KEM-I-m2": "a04bfcd370f81f7c66889727916b31c083536922518f81cfa1f44a48c4d222df",
    "KEM-I-m3": "a89ce18aa9b4cafc0650d3f2a8b8587b13df1aad81a40d0480ff2352800d0a81",
    "KEM-III-m2": "e0f1b6acb2af2bb0c2defea48e41199b1c341ab1b9a41fbb91855d67e3733d4d",
    "KEM-III-m3": "2cf2338fdb688b2b5324bc963bc3198b84b165172a536b5ce9bdf7dbd729f101",
    "KEM-V-m2": "393a8f6da00b3470a2cc93bffe7a0d31e7e0b44a79836a909702322d07554ad0",
    "KEM-V-m3": "ed59c374232fb4a09bba3f154f3545718a208d8f1a9f97ea77d6b5d6bb160cae",
    "DS-I": "c570d1ca3d91957b0f012432fcd24ae84bea68b0cf5d83ad9a504c3f5196e9e2",
    "DS-III": "ab50ea83692b7c6c2efc00ada004d650da39a7bf8774800843e1e38ef5cf261a",
    "DS-V": "4b3040b9449eec347c86e1fb09d46d7b298befff55007b4975febabc39c4534d",
}


@pytest.mark.parametrize("label", list(kat.KAT_CONFIGS))
def test_kat_bytes_are_pinned(label):
    text = kat.emit_kat(b"c10-kat-seed", label, 5)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_KAT_SHA256[label]
