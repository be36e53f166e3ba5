"""The benchmark's own test: wrapping the package for tracing changes no
numbers, and a workload repeats bit for bit from its seed.

Runs each workload in-process for its minimum amount of work (one set-up,
no time budget), three times with the same seed: untraced, untraced again,
and traced. Takes about two minutes on two cores.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    WORKLOADS = [w["name"] for w in json.load(_fh)["workloads"]]


def _outputs(name, tmp_path, tag, traced):
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    workdir = tmp_path / tag
    workdir.mkdir()
    bench = workloads.Bench(seed=7, seconds=0.0, workdir=str(workdir), tracer=tracer)
    try:
        workloads.run(name, bench)
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert bench.failed == 0 and not bench.problems, bench.problems
    return ([v.hex() for v in bench.losses],
            [s.dtype.str + s.tobytes().hex() for s in bench.scores],
            tracer)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_and_reruns_are_bit_identical(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SETUPS", 1)
    monkeypatch.setattr(workloads, "SETUP_SECONDS", 0.0)
    first = _outputs(name, tmp_path, "a", traced=False)
    again = _outputs(name, tmp_path, "b", traced=False)
    traced = _outputs(name, tmp_path, "c", traced=True)
    assert first[0] or first[1]
    assert again[:2] == first[:2]
    assert traced[:2] == first[:2]
    assert traced[2].spans, "the traced run recorded no spans"


def test_uninstall_restores_every_wrapped_name():
    before = [getattr(owner, attr) for owner, attr, *_ in spans._TRACE_POINTS]
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, *_ in spans._TRACE_POINTS] == before
