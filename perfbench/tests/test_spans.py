"""Self-time arithmetic and the installed wrappers."""

from collections import Counter

import pytest

import spans


def tree():
    """Hand-built spans: ids 0..5.

    0 root      [0, 10]
    1 child     [1, 4]    of 0
    2 child     [3, 6]    of 0, overlaps 1
    3 grandkid  [2, 3]    of 1
    4 child     [9, 12]   of 0, runs past the root's end
    5 other root [20, 21]
    """
    start = [0.0, 1.0, 3.0, 2.0, 9.0, 20.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0, 21.0]
    parent = [-1, 0, 0, 1, 0, -1]
    return start, end, parent


def test_self_time_subtracts_union_of_children():
    start, end, parent = tree()
    got = spans.self_times(start, end, parent, range(6))
    # Root: children cover [1, 6] and [9, 10] -> 5 + 1 of 10.
    assert got[0] == pytest.approx(4.0)
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(3.0)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(3.0)
    assert got[5] == pytest.approx(1.0)


def test_self_times_of_a_subset_ignore_other_children():
    start, end, parent = tree()
    got = spans.self_times(start, end, parent, [0, 1, 3])
    assert got == pytest.approx({0: 7.0, 1: 2.0, 3: 1.0})


def test_layer_self_times_sum_to_root_duration():
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 7.0]).__next__
    t = spans.Tracer(clock)
    t.begin_pass(0)
    outer = t.open(t.name_id("cli.run_scenario"))  # 0
    inner = t.open(t.name_id("linalg.sparse_rref"))  # 1
    leaf = t.open(t.name_id("scalar.NormValue.compare"))  # 2
    t.close(leaf)  # 3
    t.close(inner)  # 4
    t.close(outer)  # 7
    m = spans.layer_metrics(t, [0, 1, 2], Counter())
    assert m["scalar.self_s"] == pytest.approx(1.0)
    assert m["linalg.self_s"] == pytest.approx(2.0)
    assert m["linalg.sparse_rref_s"] == pytest.approx(3.0)
    assert m["linalg.sparse_rref_calls"] == 1
    assert m["scalar.compare_calls"] == 1
    assert m["trace.spans"] == 3


def test_install_records_spans_and_uninstall_restores():
    import afnd.homotopy
    import afnd.linalg

    original = afnd.linalg.kernel_basis
    t = spans.Tracer(__import__("time").perf_counter)
    uninstall = spans.install(t)
    try:
        assert afnd.homotopy.kernel_basis is afnd.linalg.kernel_basis
        assert afnd.linalg.kernel_basis is not original
        t.begin_pass(0)
        basis = afnd.linalg.kernel_basis([[1, 2], [2, 4]])
    finally:
        uninstall()
    assert afnd.linalg.kernel_basis is original
    assert afnd.homotopy.kernel_basis is original
    assert len(basis) == 1
    names = [t.names[i] for i in t.name_of]
    assert "linalg.kernel_basis" in names
    assert "linalg.sparse_rref" in names
    m = spans.layer_metrics(t, list(range(len(t.name_of))), t.counts)
    # Only the outermost linalg entry counts its dense input.
    assert m["linalg.dense_cells"] == 4
    assert m["linalg.sparse_rref_calls"] == 1
    assert m["linalg.nnz_in"] == 4
    assert m["linalg.nnz_out"] == 2


def test_layer_metrics_cover_every_per_layer_name():
    t = spans.Tracer(iter(range(100)).__next__)
    t.begin_pass(0)
    t.close(t.open(t.name_id("cli.run_scenario")))
    produced = set(spans.layer_metrics(t, [0], Counter()))
    # The overhead compares two runs, so run.py adds it.
    assert produced | {"trace.overhead_s"} == {n for n, _ in spans.PER_LAYER}
