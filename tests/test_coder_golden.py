"""Coder bitstreams on fixed inputs must match the committed golden streams bit for bit.

``tests/golden/coder_streams.json`` holds one case per line: the model (a
source with n and epsilon, or explicit per-bin arrays), the (pattern, bin)
input, and the stream ``encode`` emitted for it (hex payload and bit count).
The cases are the benchmark's code-roundtrip streams at seed 0 (zipf k=200,
n=512), one n=4096 zipf stream, a single-letter source and the synthetic
three-letter single-bin model.  After an intended bitstream change,
regenerate the streams with ``PYTHONPATH=src python tests/test_coder_golden.py``
and record the change in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from pattern_entropy import distributions, grids
from pattern_entropy.coder import Bitstring, CoderModel, decode, encode

GOLDEN = Path(__file__).parent / "golden" / "coder_streams.json"


def load_cases() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def dump(cases: list[dict]) -> str:
    return "[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n"


def model_of(case: dict) -> CoderModel:
    if "model" in case:
        return CoderModel(**{k: (v if k == "n" else np.array(v))
                             for k, v in case["model"].items()})
    src = case["source"]
    theta = distributions.make_distribution(distributions.SourceSpec(src["family"], src["params"]))
    grid = grids.build_grid("eta", case["n"], case["epsilon"])
    return CoderModel.from_source(theta, grid, case["n"])


@pytest.mark.parametrize("case", load_cases(), ids=lambda c: c["name"])
def test_stream_matches_golden(case):
    model = model_of(case)
    bits = encode(model, case["psi"], case["beta"])
    assert (bits.data.hex(), bits.nbits) == (case["hex"], case["nbits"])
    golden = Bitstring(bytes.fromhex(case["hex"]), case["nbits"])
    assert decode(model, golden, len(case["psi"])) == (tuple(case["psi"]), tuple(case["beta"]))


if __name__ == "__main__":
    cases = load_cases()
    for case in cases:
        bits = encode(model_of(case), case["psi"], case["beta"])
        case["hex"], case["nbits"] = bits.data.hex(), bits.nbits
    GOLDEN.write_text(dump(cases), encoding="utf-8")
