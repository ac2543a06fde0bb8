"""Vectorized Impala execution: same rows, same bills, batch or scalar.

The spatial join node and filter node run on row batches; these tests
pin down that rows, row order, and simulated seconds are identical to
the row-by-row reference in ``tests/reference.py``, that ``batch_size``
plumbs through the exec nodes, and that conjunct vectorization falls
back to the scalar interpreter whenever it cannot reproduce its
semantics exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import ClusterSpec, CostModel
from repro.errors import ImpalaError
from repro.hdfs import SimulatedHDFS, write_text
from repro.impala import ColumnType, ImpalaBackend
from repro.impala.ast_nodes import BinaryOp, ColumnRef, Literal
from repro.impala.exec_nodes import FilterNode, InstanceContext
from repro.impala.exprs import Slot, TupleDescriptor, vectorize_conjuncts
from repro.impala.rowbatch import BATCH_SIZE, RowBatch, batches_of
from tests.reference import naive_pairs, reference_plane


@pytest.fixture
def city():
    rng = random.Random(99)
    fs = SimulatedHDFS(block_size=2048)
    points = [f"{i}\tPOINT ({rng.uniform(0, 100)} {rng.uniform(0, 100)})"
              for i in range(400)]
    write_text(fs, "/pnt.txt", points)
    polys = []
    pid = 0
    for row in range(4):
        for col in range(4):
            x0, y0 = col * 25, row * 25
            polys.append(
                f"{pid}\tPOLYGON (({x0} {y0}, {x0+25} {y0}, {x0+25} {y0+25}, "
                f"{x0} {y0+25}, {x0} {y0}))\t{pid % 3}"
            )
            pid += 1
    write_text(fs, "/poly.txt", polys)
    return fs


def make_backend(city, nodes=2, **kwargs) -> ImpalaBackend:
    backend = ImpalaBackend(ClusterSpec(nodes, 4), hdfs=city, **kwargs)
    backend.metastore.create_table(
        "pnt", [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)], "/pnt.txt"
    )
    backend.metastore.create_table(
        "poly",
        [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING),
         ("zone", ColumnType.BIGINT)],
        "/poly.txt",
    )
    return backend


QUERIES = [
    "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
    "WHERE ST_WITHIN(pnt.geom, poly.geom)",
    "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
    "WHERE ST_NEARESTD(pnt.geom, poly.geom, 5.0)",
    "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
    "WHERE ST_WITHIN(pnt.geom, poly.geom) AND poly.zone = 1",
    "SELECT id FROM pnt WHERE id < 25",
]


class TestBatchScalarEquivalence:
    """Production against the reference plane: an object-built index
    probed row by row with ``probe_with_cost`` and a scalar residual
    filter, so each row's units, and with them the OpenMP static-chunk
    makespans, come from summed ``probe_with_cost`` units."""

    @pytest.mark.parametrize("sql", QUERIES)
    @pytest.mark.parametrize("engine", ["fast", "slow"])
    def test_rows_and_runtime_identical(self, city, sql, engine):
        batch = make_backend(city, engine=engine).execute(sql)
        with reference_plane():
            scalar = make_backend(city, engine=engine).execute(sql)
        assert batch.rows == scalar.rows  # values AND order
        assert batch.simulated_seconds == scalar.simulated_seconds

    def test_custom_cost_model_still_identical(self, city):
        model = CostModel(work_scale=72_000.0)
        sql = QUERIES[0]
        batch = make_backend(city, cost_model=model).execute(sql)
        with reference_plane():
            scalar = make_backend(city, cost_model=model).execute(sql)
        assert batch.rows == scalar.rows
        assert batch.simulated_seconds == scalar.simulated_seconds

    def test_rows_match_naive_ground_truth(self, city):
        from repro.geometry.wkt import loads

        def table(path):
            lines = city.read(path).decode().splitlines()
            return [(int(f[0]), loads(f[1])) for f in (line.split("\t") for line in lines)]

        result = make_backend(city).execute(QUERIES[0])
        assert sorted(result.rows) == naive_pairs(
            table("/pnt.txt"), table("/poly.txt"), "within"
        )


class TestBatchSizePlumbing:
    def test_small_batch_same_rows(self, city):
        sql = QUERIES[0]
        default = make_backend(city).execute(sql)
        small = make_backend(city, batch_size=7).execute(sql)
        assert small.rows == default.rows

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "1024", True])
    def test_backend_rejects_bad_batch_size(self, city, bad):
        with pytest.raises(ImpalaError):
            ImpalaBackend(ClusterSpec(1, 2), hdfs=city, batch_size=bad)

    def test_rowbatch_capacity_validation(self):
        with pytest.raises(ImpalaError):
            RowBatch(capacity=0)

    def test_batches_of_validation(self):
        with pytest.raises(ImpalaError):
            list(batches_of([(1,)], batch_size=0))
        batches = list(batches_of([(i,) for i in range(10)], batch_size=4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert all(b.capacity == 4 for b in batches)

    def test_rowbatch_columns(self):
        batch = RowBatch([(1, "a"), (2, "b")])
        assert batch.column(0) == [1, 2]
        assert batch.columns() == [[1, 2], ["a", "b"]]
        assert RowBatch().columns() == []


class _StubChild:
    def __init__(self, batches):
        self._batches = batches

    def batches(self):
        yield from self._batches


def _ctx() -> InstanceContext:
    return InstanceContext(node_id=0, cores=4, cost_model=CostModel())


class TestFilterNodeVectorized:
    ROWS = [(i, float(i) * 0.5) for i in range(10)]

    def test_mask_matches_scalar_predicate(self):
        predicate = lambda row: row[0] < 5  # noqa: E731
        child = _StubChild([RowBatch(list(self.ROWS), capacity=BATCH_SIZE)])
        scalar_node = FilterNode(_ctx(), child, predicate)
        scalar = [r for b in scalar_node.batches() for r in b]

        child = _StubChild([RowBatch(list(self.ROWS), capacity=BATCH_SIZE)])
        vector_node = FilterNode(
            _ctx(),
            child,
            predicate,
            vector_predicate=lambda cols: [v < 5 for v in cols[0]],
        )
        assert [r for b in vector_node.batches() for r in b] == scalar

    def test_none_mask_falls_back_to_scalar(self):
        calls = []

        def predicate(row):
            calls.append(row)
            return row[0] < 5

        child = _StubChild([RowBatch(list(self.ROWS), capacity=BATCH_SIZE)])
        node = FilterNode(_ctx(), child, predicate, vector_predicate=lambda cols: None)
        kept = [r for b in node.batches() for r in b]
        assert kept == self.ROWS[:5]
        assert len(calls) == len(self.ROWS)  # every row went through the scalar path

    def test_filter_charges_no_time(self):
        ctx = _ctx()
        child = _StubChild([RowBatch(list(self.ROWS), capacity=BATCH_SIZE)])
        node = FilterNode(
            ctx,
            child,
            lambda row: True,
            vector_predicate=lambda cols: [True] * len(cols[0]),
        )
        list(node.batches())
        assert ctx.serial_seconds == 0.0
        assert ctx.parallel_seconds == 0.0


class TestVectorizeConjuncts:
    DESCRIPTOR = TupleDescriptor([Slot("t", "id"), Slot("t", "name")])

    def conjunct(self, op, column="id", value=5):
        return BinaryOp(op, ColumnRef("t", column), Literal(value))

    def test_numeric_comparisons_vectorize(self):
        for op in ("=", "<>", "<", "<=", ">", ">="):
            vector = vectorize_conjuncts([self.conjunct(op)], self.DESCRIPTOR)
            assert vector is not None
            mask = vector([[1, 5, 9], ["a", "b", "c"]])
            expected = {
                "=": [False, True, False],
                "<>": [True, False, True],
                "<": [True, False, False],
                "<=": [True, True, False],
                ">": [False, False, True],
                ">=": [False, True, True],
            }[op]
            assert list(mask) == expected

    def test_flipped_operands(self):
        conjunct = BinaryOp("<", Literal(5), ColumnRef("t", "id"))
        vector = vectorize_conjuncts([conjunct], self.DESCRIPTOR)
        assert list(vector([[1, 5, 9], ["a", "b", "c"]])) == [False, False, True]

    def test_multiple_conjuncts_and_together(self):
        vector = vectorize_conjuncts(
            [self.conjunct(">", value=2), self.conjunct("<", value=8)],
            self.DESCRIPTOR,
        )
        assert list(vector([[1, 5, 9], ["a", "b", "c"]])) == [False, True, False]

    def test_string_column_falls_back_at_runtime(self):
        # Vectorization compiles (the literal is numeric) but must bail at
        # runtime on a non-numeric column: numpy would happily coerce
        # digit-strings where the scalar interpreter raises.
        vector = vectorize_conjuncts(
            [self.conjunct("=", column="name")], self.DESCRIPTOR
        )
        assert vector([[1, 2, 3], ["7", "8", "9"]]) is None

    def test_non_numeric_literal_not_vectorized(self):
        conjunct = self.conjunct("=", column="name", value="abc")
        assert vectorize_conjuncts([conjunct], self.DESCRIPTOR) is None

    def test_bool_literal_not_vectorized(self):
        assert vectorize_conjuncts([self.conjunct("=", value=True)],
                                   self.DESCRIPTOR) is None

    def test_unsupported_shape_not_vectorized(self):
        both_columns = BinaryOp("<", ColumnRef("t", "id"), ColumnRef("t", "id"))
        assert vectorize_conjuncts([both_columns], self.DESCRIPTOR) is None
        arithmetic = BinaryOp(
            "<",
            BinaryOp("+", ColumnRef("t", "id"), Literal(1)),
            Literal(5),
        )
        assert vectorize_conjuncts([arithmetic], self.DESCRIPTOR) is None

    def test_empty_conjuncts_not_vectorized(self):
        assert vectorize_conjuncts([], self.DESCRIPTOR) is None
