import math
import tracemalloc

import numpy as np

from pushrank import trace as trace_module
from pushrank.trace import Trace, format_float, write_table


def test_trace_columns_grow_as_arrays():
    # 100,000 single-replica records, each value a fresh array as the
    # oracle hands them out: five columns of 8 B per record, grown by
    # doubling, where a list of small arrays costs about 100 B per value
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = Trace()
        for k in range(100_000):
            trace.append(k, 2 * k, err_l1=np.full(1, 0.5 / (k + 1)),
                         cert=np.full(1, 0.25), defect=np.full(1, math.nan))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 10 * 2 ** 20
    assert trace.steps.dtype == trace.updates.dtype == np.int64
    assert trace.err_l1.shape == (100_000, 1)
    assert trace.final_step == 99_999 and trace.final_updates == 199_998
    assert trace.final_err == 0.5 / 100_000 and trace.final_cert == 0.25
    assert np.isnan(trace.defect).all()


def test_trace_keeps_every_replica_and_fills_a_scalar_across_them():
    trace = Trace(3)
    trace.append(0, 0, err_l1=np.array([1.0, 2.0, 3.0]), cert=math.nan)
    trace.append(4, 12, err_l1=np.array([0.5, 0.25, 0.125]),
                 cert=np.array([1.0, 2.0, 4.0]), defect=0.0)
    np.testing.assert_array_equal(trace.err_l1, [[1, 2, 3], [0.5, 0.25, 0.125]])
    assert np.isnan(trace.cert[0]).all() and trace.cert[1].tolist() == [1, 2, 4]
    assert trace.defect[1].tolist() == [0, 0, 0]
    assert trace.steps.tolist() == [0, 4] and trace.updates.tolist() == [0, 12]


def test_write_table_in_chunks_writes_the_bytes_of_one_join(tmp_path):
    rows = 2 * trace_module._CHUNK_ROWS + 1
    ints = np.arange(rows, dtype=np.int64) * 7 - 3
    floats = np.random.default_rng(2).random(rows) / 3.0
    floats[::5] = math.nan
    path = tmp_path / "t.csv"
    write_table(path, ["i", "v"], [ints, floats])
    want = "i,v\n" + "".join(f"{i},{format_float(v)}\n"
                             for i, v in zip(ints.tolist(), floats.tolist()))
    assert path.read_bytes() == want.encode("utf-8")
