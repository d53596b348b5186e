"""Words in, words out: the serve payload path over binary64 word arrays.

``execute_payload`` hands pcs/fcs ``fma`` and ``dot`` payloads to
:func:`repro.batch.fma_words` / :func:`repro.batch.dot_words`, which
stay on ``uint64`` lane arrays from the wire words to the result words
(``lift_words -> fma_lanes -> pack_words``).  This module pins that path:

* a sha256 over the records of a seeded payload set (fma at 64 and
  4096 lanes with Inf/NaN/subnormal words mixed in, dot above and below
  the coalesced-lane gate, acc, classic fma), recorded on the
  object-conversion path this one replaced -- byte identity, not just
  agreement with ``reference_result``;
* the ``batch.fma.*``/``batch.dot.*``/``batch.vector.*`` telemetry of
  the same pass, recorded on the same code;
* the 298-vector golden corpus through a vector-pinned payload,
  including the deferred special lanes and the overflow/flush cases.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from pathlib import Path

import pytest

from repro.batch import dot_batch, dot_words, fma_batch, fma_words
from repro.fma import FcsFmaUnit, PcsFmaUnit, cs_to_ieee
from repro.fp import fp_to_word, word_to_fp
from repro.serve import execute_payload
from repro.telemetry import collecting

CASES = json.loads((Path(__file__).parent / "vectors"
                    / "fma_hard_cases.json").read_text())["cases"]

#: sha256 over the records of :func:`word_payloads`, recorded before
#: the serve path moved onto word arrays.
WORD_PAYLOAD_DIGEST = \
    "288f1f18347a5a987b19f840dd3b3da5521e7e605fc6a0e99c20e95c4f73c0f1"

#: ``batch.fma.*``/``batch.dot.*``/``batch.vector.*`` counters of one
#: pass over :func:`word_payloads`, recorded on the same code.
WORD_PAYLOAD_COUNTERS = {
    "batch.dot.calls": 8, "batch.dot.elements.fcs": 128,
    "batch.fma.calls": 4, "batch.fma.elements.fcs": 4160,
    "batch.fma.elements.pcs": 4160, "batch.vector.deferred": 307,
    "batch.vector.deferred.special": 307, "batch.vector.fallback": 10,
    "batch.vector.fallback.small-batch": 10, "batch.vector.lanes": 7949,
}

SPECIAL_WORDS = (
    0x7FF0000000000000, 0xFFF0000000000000,       # +-Inf
    0x7FF8000000000000, 0x7FF0000000000001,       # NaNs
    0x0000000000000001, 0x800FFFFFFFFFFFFF,       # subnormals (flush)
    0x0000000000000000, 0x8000000000000000,       # +-0
    0x7FEFFFFFFFFFFFFF, 0x0010000000000000,       # max / min normal
)


def _word(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _words(rng: random.Random, n: int, p_special: float) -> list[int]:
    return [rng.choice(SPECIAL_WORDS) if rng.random() < p_special
            else (rng.getrandbits(1) << 63)
            | ((1023 + rng.randint(-40, 40)) << 52) | rng.getrandbits(52)
            for _ in range(n)]


def word_payloads(seed: int = 20261017) -> list[dict]:
    """The seeded payload set behind :data:`WORD_PAYLOAD_DIGEST`.  Every
    payload pins ``backend="auto"`` so the environment cannot move the
    dispatch (and with it the counters)."""
    rng = random.Random(seed)

    def fma(fmt, lanes):
        return {"op": "fma", "fmt": fmt, "backend": "auto",
                "items": [tuple(_words(rng, 3, 0.03))
                          for _ in range(lanes)]}

    def vec(op, fmt, lanes, length, p_special):
        return {"op": op, "fmt": fmt, "backend": "auto",
                "items": [(tuple(_words(rng, length, p_special)),
                           tuple(_words(rng, length, p_special)), None)
                          for _ in range(lanes)]}

    return [fma("pcs", 64), fma("fcs", 64),
            fma("pcs", 4096), fma("fcs", 4096),
            vec("dot", "fcs", 64, 256, 0.0003),
            vec("dot", "fcs", 8, 16, 0.01),
            vec("acc", "pcs", 16, 24, 0.0),
            fma("classic", 64)]


def payload_pass() -> "tuple[str, dict]":
    """One pass over :func:`word_payloads`: the records' sha256 and the
    batch-layer counters."""
    h = hashlib.sha256()
    with collecting() as t:
        for payload in word_payloads():
            h.update(repr(execute_payload(payload)).encode())
    counters = {k: v for k, v in sorted(t.snapshot().counters.items())
                if k.startswith(("batch.fma.", "batch.dot.",
                                 "batch.vector."))}
    return h.hexdigest(), counters


@pytest.fixture(scope="module")
def one_pass():
    return payload_pass()


class TestByteIdentity:
    def test_records_digest_unchanged(self, one_pass):
        assert one_pass[0] == WORD_PAYLOAD_DIGEST

    def test_counters_unchanged(self, one_pass):
        assert one_pass[1] == WORD_PAYLOAD_COUNTERS


class TestGoldenCorpusOnWords:
    @pytest.mark.parametrize("fmt", ["pcs", "fcs"])
    def test_vector_payload_matches_goldens(self, fmt):
        items = [tuple(int(c[k], 16) for k in "abc") for c in CASES]
        with collecting() as t:
            records = execute_payload({"op": "fma", "fmt": fmt,
                                       "backend": "vector",
                                       "items": items})
        for case, rec in zip(CASES, records):
            assert rec == ("ok", int(case["expected"][f"{fmt}-fma"], 16)), (
                case["id"], case["note"])
        counters = t.snapshot().counters
        # the special lanes really took the scalar kernel, the rest the
        # lane engine
        assert counters["batch.vector.deferred.special"] == 16
        assert counters["batch.vector.lanes"] == len(CASES) - 16


class TestWordEntryPoints:
    """``fma_words``/``dot_words`` equal the object entry points on the
    faithful models, on every backend, including empty inputs."""

    @pytest.mark.parametrize("backend", ["vector", "tuple", "faithful"])
    @pytest.mark.parametrize("unit", [PcsFmaUnit(), FcsFmaUnit()],
                             ids=["pcs", "fcs"])
    def test_match_faithful_object_path(self, unit, backend):
        a, b, c = ([int(x[k], 16) for x in CASES[:40]] for k in "abc")
        # exact halfway cases: x + ulp(x)/2 * +-1 must round to even
        for x in (1.0, 1.0 + 2.0 ** -52, 3.0, -1.5, 2.0 ** 600):
            for sign in (1.0, -1.0):
                a.append(_word(x))
                b.append(_word(math.ulp(x) / 2))
                c.append(_word(sign))
        ref = fma_batch(*([word_to_fp(w) for w in v] for v in (a, b, c)),
                        unit=unit, backend="faithful")
        assert (fma_words(a, b, c, unit, backend=backend)
                == [fp_to_word(cs_to_ieee(r)) for r in ref])
        lanes_a = [a[i:i + 5] for i in range(0, 40, 5)] + [[]]
        lanes_b = [b[i:i + 5] for i in range(0, 40, 5)] + [[]]
        ref = [fp_to_word(dot_batch([word_to_fp(w) for w in x],
                                    [word_to_fp(w) for w in y], unit,
                                    backend="faithful"))
               for x, y in zip(lanes_a, lanes_b)]
        assert dot_words(lanes_a, lanes_b, unit, backend=backend) == ref
        assert dot_words([[]], [[]], unit, backend=backend) == [0]
        assert fma_words([], [], [], unit, backend=backend) == []
        assert dot_words([], [], unit, backend=backend) == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fma_words([0], [0], [], PcsFmaUnit())
        with pytest.raises(ValueError):
            dot_words([[0]], [], PcsFmaUnit())
