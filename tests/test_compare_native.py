"""``benchmarks/compare.py --native``: the BENCH_3 np.sort-ratio gate."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _PATH)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

BIG = compare.NATIVE_GATE_MIN_N
BOUND = compare.NATIVE_MAX_NPSORT_RATIO


def _doc(**overrides):
    """A native_path result with one small and one gated cell."""
    gated = {"n": BIG, "verified": 1, "radix_npsort_ratio": 5.0,
             "sample_npsort_ratio": 3.0}
    gated.update(overrides)
    small = {"n": 1 << 20, "verified": 1, "radix_npsort_ratio": BOUND * 2,
             "sample_npsort_ratio": 3.0}
    return {"native_path": {"data": {"cells": {
        f"random/{1 << 20}": small, f"random/{BIG}": gated,
    }}}}


def test_in_bound_document_passes():
    # The small cell's ratio is over the bound but below the gated size.
    assert list(compare.check_native(_doc())) == []


@pytest.mark.parametrize("overrides, match", [
    ({"verified": 0}, "did not match np.sort"),
    ({"radix_npsort_ratio": BOUND + 0.01}, "radix sort took"),
    ({"sample_npsort_ratio": BOUND + 0.01}, "sample sort took"),
])
def test_gate_fails(overrides, match):
    failures = list(compare.check_native(_doc(**overrides)))
    assert len(failures) == 1 and match in failures[0]


def test_no_gated_cell_fails():
    failures = list(compare.check_native(_doc(n=BIG - 1)))
    assert len(failures) == 1 and "no cell reaches" in failures[0]


def test_main_exit_code(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        results = [{"exp_id": k, **v} for k, v in doc.items()]
        path.write_text(json.dumps({"results": results}))
        return str(path)

    base = write("base.json", _doc())
    assert compare.main([base, write("ok.json", _doc()), "--native"]) == 0
    bad = write("bad.json", _doc(verified=0))
    assert compare.main([base, bad, "--native"]) == 1
