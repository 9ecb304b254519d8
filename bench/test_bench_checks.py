"""Tests of the benchmark's own output checks and span accounting.

    python3 -m pytest -q bench/test_bench_checks.py
"""

import numpy as np
import pytest

import run

run.import_zestkit()

import zestkit as zk  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class DropOneRow(zk.QueryOracle):
    """Delegates to another oracle, but once leaves the last row of a batch
    unsent and answers it with the answer to the row before it."""

    def __init__(self, inner):
        self._inner = inner
        self.ledger = inner.ledger
        self.dropped = False

    @property
    def class_count(self):
        return self._inner.class_count

    @property
    def input_dim(self):
        return self._inner.input_dim

    @property
    def oracle_id(self):
        return self._inner.oracle_id

    def predict_proba(self, batch, purpose="other"):
        batch = np.asarray(batch)
        if self.dropped or len(batch) < 2:
            return self._inner.predict_proba(batch, purpose)
        self.dropped = True
        probs = self._inner.predict_proba(batch[:-1], purpose)
        return np.vstack([probs, probs[-1:]])


@pytest.fixture
def sign_local():
    wl = workloads.make_workload("sign-local", 7, workdir=None)
    wl.setup()
    yield wl
    wl.close()


def test_clean_ops_pass(sign_local):
    result = run.run_loop(sign_local, 0, trace=False)
    assert result.attempted == 3 and result.failed == 0, result.errors
    assert {o.rows for o in result.outcomes} == {128 * 1000 + 128}


def test_dropped_row_is_a_failed_op(sign_local):
    sign_local.oracle = DropOneRow(sign_local.oracle)
    result = run.run_loop(sign_local, 0, trace=False)
    assert result.attempted == 3 and result.failed >= 1
    assert any("ledger signature=127999 expected 128000" in e for e in result.errors)


def test_signature_one_ulp_off_is_a_failed_op(sign_local, monkeypatch):
    compute = zk.compute_signature
    calls = []

    def one_ulp_off_on_second_call(oracle, plan):
        sig = compute(oracle, plan)
        calls.append(1)
        if len(calls) != 2:
            return sig
        pms = list(sig.point_models)
        coef = pms[0].coef.copy()
        coef[0, 0] = np.nextafter(coef[0, 0], np.inf)
        pms[0] = zk.PointModel(coef, pms[0].intercept)
        return zk.Signature(sig.model_id, sig.plan_fingerprint, tuple(pms))

    monkeypatch.setattr(workloads.zk, "compute_signature", one_ulp_off_on_second_call)
    result = run.run_loop(sign_local, 0, trace=False)
    assert result.attempted == 3 and result.failed == 1
    assert result.errors == ["op 1: repeat: signature differs bitwise"]


def test_traced_self_times_sum_to_op_wall_time(sign_local):
    result = run.run_loop(sign_local, 0, trace=True)
    assert result.attempted == 4 and result.failed == 0, result.errors
    metrics, report = run.per_layer(result)
    assert report["traced_ops"] == 2
    assert report["self_sum_over_root_span"] == pytest.approx([1.0, 1.0], abs=1e-9)
    assert all(0.95 < share <= 1.0 for share in report["self_sum_over_op_wall"])
    assert sum(report["self_share_by_layer"].values()) == pytest.approx(1.0, abs=1e-9)
    assert metrics["oracle.predict_calls"]["value"] == 256
    assert metrics["nn.forward_rows"]["value"] == 128 * 1000 + 128


def test_loopback_op_matches_in_process_signature_and_server_counts():
    wl = workloads.make_workload("sign-loopback", 7, workdir=None)
    wl.setup()
    try:
        out = wl.run_op()
    finally:
        wl.close()
    assert out.errors == []
    assert (out.rows, out.requests) == (128 * 1000 + 128, 2 * 128)
    assert wl.reference == wl.first


def test_self_time_subtracts_direct_children_only():
    def span(name, parent, start, end):
        s = spans.Span(name, parent, 0, start)
        s.end = end
        return s

    root = span("lime.signature", None, 0.0, 10.0)
    child = span("oracle.predict", root, 1.0, 4.0)
    grandchild = span("nn.forward", child, 2.0, 3.0)
    sibling = span("lime.masked_batch", root, 5.0, 9.0)
    tree = spans.op_tree(root, [root, child, grandchild, sibling])
    selfs = spans.self_times(tree)
    assert [selfs[id(s)] for s in tree] == [3.0, 2.0, 1.0, 4.0]
    sums = spans.op_layer_sums(root, [root, child, grandchild, sibling])
    assert (sums["lime.self_s"], sums["oracle.self_s"], sums["nn.self_s"]) == (7.0, 2.0, 1.0)
    assert sums["self_sum_s"] == sums["op_s"] == 10.0
