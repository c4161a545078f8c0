"""Tests of the benchmark's own machinery: verifier, tracer, generator.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from eigenschaft import cli  # noqa: E402


def _respond(req) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(req.argv)) == 0
    return out.getvalue()


def _request(kind, n, tmp_path, seed=0, index=1):
    directory = tmp_path / f"{kind}-{n}-{seed}-{index}"
    directory.mkdir()
    files = workloads.InputFiles(str(directory))
    return workloads.MATRIX_KINDS[kind](np.random.default_rng(seed), files, n, index)


def test_correct_responses_pass(tmp_path):
    for kind in ("convert-op", "convert-ps", "flip", "classify-mixed", "decompose",
                 "validate-perturbed", "construct-diag", "construct-kron"):
        n = 3 if kind == "construct-diag" else 4
        req = _request(kind, n, tmp_path)
        req.check(_respond(req))


def test_flipped_sign_is_wrong(tmp_path):
    req = _request("convert-op", 5, tmp_path)  # bulk trace class: both signs occur
    payload = json.loads(_respond(req))
    signs = payload["signs"]
    i, j = signs.index(1), signs.index(-1)
    signs[i], signs[j] = -1, 1  # same trace class, another operator
    with pytest.raises(oracle.Wrong):
        req.check(json.dumps(payload))
    payload = json.loads(_respond(req))
    entry = payload["projectors"][0]["entries"][1]
    entry[0], entry[1] = -entry[0], -entry[1]
    with pytest.raises(oracle.Wrong):
        req.check(json.dumps(payload))


def test_truncated_payload_is_wrong(tmp_path):
    req = _request("flip", 4, tmp_path)
    text = _respond(req)
    with pytest.raises(oracle.Wrong):
        req.check(text[: len(text) // 2])
    fr = workloads.fringe_request(np.random.default_rng(1),
                                  workloads.InputFiles(str(tmp_path)), 64, "random")
    csv = _respond(fr)
    fr.check(csv)
    with pytest.raises(oracle.Wrong):
        fr.check(csv[: csv.rindex("\n", 0, len(csv) - 1) + 1])  # one row short


def test_small_error_is_a_miss_and_large_one_wrong(tmp_path):
    req = _request("classify-mixed", 4, tmp_path)
    payload = json.loads(_respond(req))
    payload["purity"] += 1e-9
    with pytest.raises(oracle.Miss):
        req.check(json.dumps(payload))
    payload["purity"] += 1e-3
    with pytest.raises(oracle.Wrong):
        req.check(json.dumps(payload))


def test_serve_counts_a_corrupted_response_as_failed(tmp_path):
    good = _request("construct-h2", 2, tmp_path)

    def corrupt(text):
        d = json.loads(text)
        d["entries"][0][0] = -d["entries"][0][0]
        good.check(json.dumps(d))

    bad = workloads.Request("construct-h2", 2, good.argv, corrupt, 0)
    outcomes = run.serve(cli, [good, bad], oracle, speed.SpeedProbe())
    assert [o.status for o in outcomes] == ["ok", "wrong"]


def test_self_times_sum_to_request_wall_time(tmp_path):
    reqs = [_request("convert-op", 7, tmp_path, index=i) for i in range(2)]
    with tracer_mod.Tracer() as tr:
        outcomes = run.serve(cli, reqs, oracle, speed.SpeedProbe(), tr)
    assert all(o.status == "ok" for o in outcomes)
    own = tr.self_times()
    for index, outcome in enumerate(outcomes):
        spans = [i for i, s in enumerate(tr.spans) if s[4] == index]
        roots = [i for i in spans if tr.spans[i][3] is None]
        assert [tr.spans[i][0] for i in roots] == ["cli.main"]
        name, start, end, _, _ = tr.spans[roots[0]]
        assert sum(own[i] for i in spans) == pytest.approx(end - start, abs=1e-9)
        assert end - start <= outcome.raw
        assert {"linalg.hermitian_eig", "operators.to_projectors",
                "serialize.read", "serialize.write"} <= {tr.spans[i][0] for i in spans}
    assert all(t >= 0.0 for t in own)


def test_tracer_restores_the_package(tmp_path):
    from eigenschaft import operators, states
    before = (operators.hermitian_eig, states.hermitian_eig, cli.main,
              operators.EigenschaftOp.__dict__["from_matrix"],
              operators.ProjectorSet.__dict__["__post_init__"])
    with tracer_mod.Tracer():
        assert operators.hermitian_eig is not before[0]
        assert states.hermitian_eig is not before[1]
    after = (operators.hermitian_eig, states.hermitian_eig, cli.main,
             operators.EigenschaftOp.__dict__["from_matrix"],
             operators.ProjectorSet.__dict__["__post_init__"])
    assert all(a is b for a, b in zip(before, after))


def test_exact_counts_repeat_for_one_seed(tmp_path):
    counts = []
    for attempt in range(2):
        directory = tmp_path / str(attempt)
        directory.mkdir()
        reqs, _ = workloads.build("sweep", 5, 1, str(directory))
        reqs = reqs[:40]
        with tracer_mod.Tracer() as tr:
            run.serve(cli, reqs, oracle, speed.SpeedProbe(), tr)
        counts.append(tr.exact_counts())
    assert counts[0] == counts[1]
    assert counts[0]["interferometer.samples"] > 0
    assert counts[0]["linalg.hermitian_eig.calls"] == 0


def test_same_seed_same_inputs(tmp_path):
    built = []
    for attempt in range(2):
        directory = tmp_path / str(attempt)
        directory.mkdir()
        reqs, warm = workloads.build("analysis", 9, 1, str(directory))
        texts = sorted(p.read_text() for p in directory.iterdir())
        built.append(([r.argv[0] for r in reqs], texts))
    assert built[0] == built[1]


def test_tail_rank_keeps_ten_samples_beyond():
    for count in (11, 104, 2144):
        assert count - 1 - run.tail_index(count) == run.TAIL_BEYOND
    assert run.tail_index(5) == 0
