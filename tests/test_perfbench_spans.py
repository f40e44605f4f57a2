"""The traced benchmark's span recorder must find every function it wraps.

``perfbench/spans.py`` looks package functions up by name, so a rename would
otherwise surface only when ``perfbench/run.py --trace 1`` runs.  The file is
read and executed here, never imported, so no bytecode lands beside it.
"""

import types
from pathlib import Path

import pattern_entropy.cli  # noqa: F401  (instrument looks modules up in sys.modules)
from pattern_entropy import ParamVector, SourceAnalysis, bounds

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PY.read_text(encoding="utf-8"), str(SPANS_PY), "exec"), module.__dict__)
    return module


def test_instrument_wraps_the_bound_path():
    spans = _load_spans()
    recorder = spans.Recorder()
    install, remove = spans.instrument(recorder)
    install()
    try:
        theta = ParamVector.from_probs([0.1, 0.2, 0.7])
        bounds.ub_theorem3_family(SourceAnalysis(theta, 8, 0.3), "ub3")
    finally:
        remove()
    names = {span[0] for span in recorder.spans}
    assert {"bounds.ub_theorem3_family", "bounds.packed_entropies",
            "grids.build_grid", "grids.bin_stats"} <= names
    # one occupancy evaluation per source, all groups at once
    assert recorder.counts["grids.absent_probability.calls"] == 1
    # remove() put the package's own functions back
    assert bounds.build_grid.__module__ == "pattern_entropy.grids"
