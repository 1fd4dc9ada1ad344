"""Tests for the Algebricks rewrite rules."""

import pytest

from repro.algebricks import (
    LCall,
    LConst,
    LVar,
    MetadataView,
    optimize,
    plan_signature,
)
from repro.algebricks.logical import (
    Assign,
    DataSourceScan,
    DistributeResult,
    Join,
    Limit,
    Order,
    PrimaryIndexSearch,
    SecondaryIndexSearch,
    Select,
    Unnest,
)
from repro.storage.dataset_storage import SecondaryIndexSpec


class FakeMetadata(MetadataView):
    def __init__(self, indexes=()):
        self._indexes = list(indexes)

    def pk_fields(self, dataset):
        return ("id",)

    def secondary_indexes(self, dataset):
        return self._indexes

    def is_external(self, dataset):
        return False


def scan(pk_var=1, rec_var=2, dataset="ds"):
    return DataSourceScan(dataset, [pk_var], rec_var)


def fa(var, name):
    return LCall("field_access", [LVar(var), LConst(name)])


def result(child, expr=None):
    return DistributeResult(expr or LVar(2), inputs=[child])


class TestBasicRewrites:
    def test_constant_folding(self):
        plan = result(Select(
            LCall("gt", [LConst(2), LCall("numeric_add",
                                          [LConst(1), LConst(1)])]),
            inputs=[scan()],
        ))
        optimized = optimize(plan, FakeMetadata())
        # 2 > (1+1) folds to false; select(false) survives (no pruning of
        # empty plans), but the inner add is gone
        select = optimized.inputs[0]
        assert isinstance(select, Select)
        assert select.condition == LConst(False)

    def test_conjunction_split_and_true_removal(self):
        cond = LCall("and", [LConst(True),
                             LCall("gt", [LVar(1), LConst(5)])])
        plan = result(Select(cond, inputs=[scan()]))
        optimized = optimize(plan, FakeMetadata())
        sig = plan_signature(optimized)
        # with a pk predicate this becomes a primary index search
        assert "PrimaryIndexSearch" in sig

    def test_select_pushed_below_assign(self):
        inner = Assign(3, fa(2, "x"), inputs=[scan()])
        cond = LCall("gt", [LVar(1), LConst(0)])  # only needs scan vars
        plan = DistributeResult(LVar(3), inputs=[Select(cond,
                                                        inputs=[inner])])
        optimized = optimize(plan, FakeMetadata())
        sig = plan_signature(optimized)
        # assign should now be above the select/search
        assert sig.index("Assign") < sig.index("PrimaryIndexSearch")

    def test_dead_assign_removed(self):
        inner = Assign(3, fa(2, "unused"), inputs=[scan()])
        plan = DistributeResult(LVar(2), inputs=[inner])
        optimized = optimize(plan, FakeMetadata())
        assert "Assign" not in plan_signature(optimized)

    def test_live_assign_kept(self):
        inner = Assign(3, fa(2, "used"), inputs=[scan()])
        plan = DistributeResult(LVar(3), inputs=[inner])
        optimized = optimize(plan, FakeMetadata())
        assert "Assign" in plan_signature(optimized)


class TestJoinRewrites:
    def make_join_plan(self, condition_above):
        left = scan(1, 2, "left")
        right = scan(3, 4, "right")
        join = Join(LConst(True), inputs=[left, right])
        return DistributeResult(LVar(2), inputs=[
            Select(condition_above, inputs=[join])
        ])

    def test_equality_select_becomes_join_condition(self):
        cond = LCall("eq", [LVar(1), LVar(3)])
        optimized = optimize(self.make_join_plan(cond), FakeMetadata())
        join = next(op for op in _walk(optimized) if isinstance(op, Join))
        assert "eq" in repr(join.condition)
        assert "Select" not in plan_signature(optimized)

    def test_one_sided_select_pushed_into_branch(self):
        cond = LCall("gt", [fa(4, "size"), LConst(100)])
        optimized = optimize(self.make_join_plan(cond), FakeMetadata())
        join = next(op for op in _walk(optimized) if isinstance(op, Join))
        right_branch_sig = plan_signature(join.inputs[1])
        assert "Select" in right_branch_sig


class TestAccessMethodRules:
    def test_primary_index_point_lookup(self):
        cond = LCall("eq", [LVar(1), LConst(42)])
        plan = result(Select(cond, inputs=[scan()]))
        optimized = optimize(plan, FakeMetadata())
        search = optimized.inputs[0]
        assert isinstance(search, PrimaryIndexSearch)
        assert search.lo == [LConst(42)] and search.hi == [LConst(42)]

    def test_primary_index_range(self):
        conds = Select(
            LCall("and", [
                LCall("ge", [LVar(1), LConst(10)]),
                LCall("lt", [LVar(1), LConst(20)]),
            ]),
            inputs=[scan()],
        )
        optimized = optimize(result(conds), FakeMetadata())
        search = optimized.inputs[0]
        assert isinstance(search, PrimaryIndexSearch)
        assert search.lo == [LConst(10)] and search.lo_inclusive
        assert search.hi == [LConst(20)] and not search.hi_inclusive

    def test_pk_predicate_via_field_access(self):
        cond = LCall("eq", [fa(2, "id"), LConst(7)])
        optimized = optimize(result(Select(cond, inputs=[scan()])),
                             FakeMetadata())
        assert isinstance(optimized.inputs[0], PrimaryIndexSearch)

    def test_secondary_btree_index_chosen(self):
        md = FakeMetadata([SecondaryIndexSpec("byA", "btree", ("alias",))])
        cond = LCall("eq", [fa(2, "alias"), LConst("bob")])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md)
        search = optimized.inputs[0]
        assert isinstance(search, SecondaryIndexSearch)
        assert search.index_name == "byA"

    def test_secondary_index_through_assign(self):
        md = FakeMetadata([SecondaryIndexSpec("byA", "btree", ("alias",))])
        assigned = Assign(3, fa(2, "alias"), inputs=[scan()])
        cond = LCall("eq", [LVar(3), LConst("bob")])
        optimized = optimize(result(Select(cond, inputs=[assigned])), md)
        assert "SecondaryIndexSearch" in plan_signature(optimized)

    def test_rtree_index_chosen_with_residual(self):
        from repro.adm import APoint, ARectangle

        md = FakeMetadata([SecondaryIndexSpec("byLoc", "rtree", ("loc",))])
        window = ARectangle(APoint(0, 0), APoint(10, 10))
        cond = LCall("spatial_intersect", [fa(2, "loc"), LConst(window)])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md)
        sig = plan_signature(optimized)
        assert "SecondaryIndexSearch" in sig
        assert "Select" in sig   # residual exact check kept

    def test_inverted_index_chosen(self):
        md = FakeMetadata([SecondaryIndexSpec("byMsg", "keyword",
                                              ("message",))])
        cond = LCall("ftcontains", [fa(2, "message"), LConst("big data")])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md)
        search = next(op for op in _walk(optimized)
                      if isinstance(op, SecondaryIndexSearch))
        assert search.index_kind == "keyword"

    def test_index_access_can_be_disabled(self):
        md = FakeMetadata([SecondaryIndexSpec("byA", "btree", ("alias",))])
        cond = LCall("eq", [fa(2, "alias"), LConst("bob")])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md,
                             enable_index_access=False)
        sig = plan_signature(optimized)
        assert "SecondaryIndexSearch" not in sig
        assert "DataSourceScan" in sig

    def test_no_index_no_rewrite(self):
        cond = LCall("eq", [fa(2, "alias"), LConst("bob")])
        optimized = optimize(result(Select(cond, inputs=[scan()])),
                             FakeMetadata())
        assert "SecondaryIndexSearch" not in plan_signature(optimized)

    def test_primary_beats_secondary(self):
        md = FakeMetadata([SecondaryIndexSpec("byA", "btree", ("alias",))])
        cond = LCall("and", [
            LCall("eq", [fa(2, "alias"), LConst("bob")]),
            LCall("eq", [fa(2, "id"), LConst(7)]),
        ])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md)
        assert plan_signature(optimized) == [
            "DistributeResult", "Select", "PrimaryIndexSearch"]
        assert optimized.inputs[0].condition == \
            LCall("eq", [fa(2, "alias"), LConst("bob")])

    def test_incomparable_pk_bounds_fall_back_to_secondary(self):
        """id = 3 AND id = 'a' is null on every record: no primary range,
        both pk predicates stay residual, and the B+ tree takes age."""
        md = FakeMetadata([SecondaryIndexSpec("byAge", "btree", ("age",))])
        cond = LCall("and", [
            LCall("eq", [fa(2, "id"), LConst(3)]),
            LCall("eq", [fa(2, "id"), LConst("a")]),
            LCall("eq", [fa(2, "age"), LConst(3)]),
        ])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md)
        search = next(op for op in _walk(optimized)
                      if isinstance(op, SecondaryIndexSearch))
        assert search.index_name == "byAge"
        assert search.lo == [LConst(3)] and search.hi == [LConst(3)]
        assert plan_signature(optimized).count("Select") == 2
        assert "PrimaryIndexSearch" not in plan_signature(optimized)

    def test_btree_beats_rtree_and_keyword(self):
        from repro.adm import APoint, ARectangle

        md = FakeMetadata([
            SecondaryIndexSpec("byLoc", "rtree", ("loc",)),
            SecondaryIndexSpec("byMsg", "keyword", ("message",)),
            SecondaryIndexSpec("byA", "btree", ("alias",)),
        ])
        window = ARectangle(APoint(0, 0), APoint(10, 10))
        cond = LCall("and", [
            LCall("spatial_intersect", [fa(2, "loc"), LConst(window)]),
            LCall("ftcontains", [fa(2, "message"), LConst("big data")]),
            LCall("eq", [fa(2, "alias"), LConst("bob")]),
        ])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md)
        search = next(op for op in _walk(optimized)
                      if isinstance(op, SecondaryIndexSearch))
        assert (search.index_kind, search.index_name) == ("btree", "byA")
        assert plan_signature(optimized).count("Select") == 2

    def test_rtree_beats_keyword(self):
        from repro.adm import APoint, ARectangle

        md = FakeMetadata([
            SecondaryIndexSpec("byMsg", "keyword", ("message",)),
            SecondaryIndexSpec("byLoc", "rtree", ("loc",)),
        ])
        window = ARectangle(APoint(0, 0), APoint(10, 10))
        cond = LCall("and", [
            LCall("ftcontains", [fa(2, "message"), LConst("big data")]),
            LCall("spatial_intersect", [fa(2, "loc"), LConst(window)]),
        ])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md)
        search = next(op for op in _walk(optimized)
                      if isinstance(op, SecondaryIndexSearch))
        assert search.index_name == "byLoc"

    def test_ngram_index_chosen(self):
        md = FakeMetadata([SecondaryIndexSpec("byName", "ngram",
                                              ("name",))])
        cond = LCall("ftcontains", [fa(2, "name"), LConst("asterix")])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md)
        search = next(op for op in _walk(optimized)
                      if isinstance(op, SecondaryIndexSearch))
        assert (search.index_kind, search.index_name) == ("ngram", "byName")
        assert search.text == LConst("asterix")

    def test_ngram_keeps_the_select_as_residual(self):
        md = FakeMetadata([SecondaryIndexSpec("byName", "ngram",
                                              ("name",))])
        text = LCall("ftcontains", [fa(2, "name"), LConst("asterix db")])
        optimized = optimize(result(Select(text, inputs=[scan()])), md)
        assert plan_signature(optimized) == [
            "DistributeResult", "Select", "SecondaryIndexSearch"]
        assert optimized.inputs[0].condition == text

    @pytest.mark.parametrize("query", ["db", "a b", "", 42])
    def test_ngram_without_a_query_gram_stays_a_scan(self, query):
        md = FakeMetadata([SecondaryIndexSpec("byName", "ngram",
                                              ("name",))])
        text = LCall("ftcontains", [fa(2, "name"), LConst(query)])
        optimized = optimize(result(Select(text, inputs=[scan()])), md)
        assert "SecondaryIndexSearch" not in plan_signature(optimized)

    def test_rtree_keeps_residual_inverted_drops_select(self):
        from repro.adm import APoint, ARectangle

        window = ARectangle(APoint(0, 0), APoint(10, 10))
        spatial = LCall("spatial_intersect", [fa(2, "loc"), LConst(window)])
        md = FakeMetadata([SecondaryIndexSpec("byLoc", "rtree", ("loc",))])
        optimized = optimize(result(Select(spatial, inputs=[scan()])), md)
        assert plan_signature(optimized) == [
            "DistributeResult", "Select", "SecondaryIndexSearch"]
        assert optimized.inputs[0].condition == spatial
        assert optimized.inputs[0].inputs[0].window == LConst(window)

        md = FakeMetadata([SecondaryIndexSpec("byMsg", "keyword",
                                              ("message",))])
        text = LCall("ftcontains", [fa(2, "message"), LConst("big data")])
        optimized = optimize(result(Select(text, inputs=[scan()])), md)
        assert plan_signature(optimized) == [
            "DistributeResult", "SecondaryIndexSearch"]


class TestConstantInlining:
    def test_does_not_inline_into_sort_keys(self):
        # regression: rule_inline_constant_assigns used to substitute a
        # constant WITH-binding into Order.pairs, leaving an LConst sort
        # key jobgen refuses (and the sort-key-variable plan invariant
        # flags, naming the rule)
        plan = DistributeResult(LVar(2), inputs=[
            Order([(LVar(5), False)], inputs=[
                Assign(5, LConst(1), inputs=[scan()])
            ])
        ])
        optimized = optimize(plan, FakeMetadata())
        order = next(op for op in _walk(optimized) if isinstance(op, Order))
        (key, _), = order.pairs
        assert key == LVar(5)
        # the assign must survive as the key's producer
        assert any(isinstance(op, Assign) and op.var == 5
                   for op in _walk(optimized))

    def test_does_not_inline_into_group_keys(self):
        from repro.algebricks.logical import AggCall, GroupBy
        plan = DistributeResult(LVar(7), inputs=[
            GroupBy([(7, LVar(5))], [AggCall(8, "count", LVar(2))],
                    inputs=[Assign(5, LConst(1), inputs=[scan()])])
        ])
        optimized = optimize(plan, FakeMetadata())
        group = next(op for op in _walk(optimized)
                     if isinstance(op, GroupBy))
        (_, key), = group.keys
        assert key == LVar(5)

    def test_still_inlines_into_predicates(self):
        plan = DistributeResult(LVar(2), inputs=[
            Select(LCall("gt", [fa(2, "x"), LVar(5)]), inputs=[
                Assign(5, LConst(3), inputs=[scan()])
            ])
        ])
        optimized = optimize(plan, FakeMetadata())
        select = next(op for op in _walk(optimized)
                      if isinstance(op, Select))
        assert "LVar(5)" not in repr(select.condition)

    def test_constant_order_by_end_to_end(self, tmp_path):
        from repro import connect
        from repro.analysis import plan_verification

        with connect(str(tmp_path / "db")) as db:
            db.execute('CREATE TYPE T AS { id: int }; '
                       'CREATE DATASET D(T) PRIMARY KEY id;')
            db.execute('INSERT INTO D ({"id": 1}); '
                       'INSERT INTO D ({"id": 2});')
            with plan_verification(True):
                assert db.query('WITH c AS 1 SELECT VALUE d.id '
                                'FROM D d ORDER BY c;') == [1, 2]
                assert db.query('WITH c AS 1 SELECT k AS k, COUNT(*) AS n '
                                'FROM D d GROUP BY c AS k;') == \
                    [{"k": 1, "n": 2}]


class TestLimitPushdown:
    def test_limit_into_order(self):
        plan = DistributeResult(LVar(2), inputs=[
            Limit(5, 2, inputs=[
                Order([(LVar(1), False)], inputs=[scan()])
            ])
        ])
        optimized = optimize(plan, FakeMetadata())
        order = next(op for op in _walk(optimized) if isinstance(op, Order))
        assert order.topk == 7


def _walk(op):
    yield op
    for child in op.inputs:
        yield from _walk(child)


class TestCompositeIndexMatching:
    def test_eq_prefix_plus_range(self):
        md = FakeMetadata([SecondaryIndexSpec("byOrgDate", "btree",
                                              ("org", "since"))])
        cond = LCall("and", [
            LCall("eq", [fa(2, "org"), LConst("uci")]),
            LCall("ge", [fa(2, "since"), LConst(2010)]),
        ])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md)
        search = next(op for op in _walk(optimized)
                      if isinstance(op, SecondaryIndexSearch))
        assert search.lo == [LConst("uci"), LConst(2010)]
        assert search.hi == [LConst("uci")]
        # both predicates consumed: no residual selects
        assert "Select" not in plan_signature(optimized)

    def test_eq_on_both_fields(self):
        md = FakeMetadata([SecondaryIndexSpec("byOrgDate", "btree",
                                              ("org", "since"))])
        cond = LCall("and", [
            LCall("eq", [fa(2, "org"), LConst("uci")]),
            LCall("eq", [fa(2, "since"), LConst(2010)]),
        ])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md)
        search = next(op for op in _walk(optimized)
                      if isinstance(op, SecondaryIndexSearch))
        assert search.lo == [LConst("uci"), LConst(2010)]
        assert search.hi == [LConst("uci"), LConst(2010)]

    def test_second_field_alone_no_match(self):
        """A bound on only the second field can't use the index."""
        md = FakeMetadata([SecondaryIndexSpec("byOrgDate", "btree",
                                              ("org", "since"))])
        cond = LCall("ge", [fa(2, "since"), LConst(2010)])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md)
        assert "SecondaryIndexSearch" not in plan_signature(optimized)

    def test_widest_index_preferred(self):
        md = FakeMetadata([
            SecondaryIndexSpec("byOrg", "btree", ("org",)),
            SecondaryIndexSpec("byOrgDate", "btree", ("org", "since")),
        ])
        cond = LCall("and", [
            LCall("eq", [fa(2, "org"), LConst("uci")]),
            LCall("lt", [fa(2, "since"), LConst(2020)]),
        ])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md)
        search = next(op for op in _walk(optimized)
                      if isinstance(op, SecondaryIndexSearch))
        assert search.index_name == "byOrgDate"

    @pytest.mark.parametrize("order", [("byAge", "byAlias"),
                                       ("byAlias", "byAge")])
    def test_equal_width_indexes_resolve_to_catalog_order(self, order):
        fields = {"byAge": ("age",), "byAlias": ("alias",)}
        md = FakeMetadata([SecondaryIndexSpec(name, "btree", fields[name])
                           for name in order])
        cond = LCall("and", [
            LCall("eq", [fa(2, "age"), LConst(30)]),
            LCall("eq", [fa(2, "alias"), LConst("bob")]),
        ])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md)
        search = next(op for op in _walk(optimized)
                      if isinstance(op, SecondaryIndexSearch))
        assert search.index_name == order[0]
        assert plan_signature(optimized).count("Select") == 1

    def test_conflicting_bounds_intersect(self):
        """The fuzzer's find, as a unit test: age >= 27 AND age = 55."""
        md = FakeMetadata([SecondaryIndexSpec("byAge", "btree", ("age",))])
        cond = LCall("and", [
            LCall("ge", [fa(2, "age"), LConst(27)]),
            LCall("eq", [fa(2, "age"), LConst(55)]),
        ])
        optimized = optimize(result(Select(cond, inputs=[scan()])), md)
        search = next(op for op in _walk(optimized)
                      if isinstance(op, SecondaryIndexSearch))
        assert search.lo == [LConst(55)] and search.hi == [LConst(55)]


class TestArrayIndexRule:
    """rule_introduce_array_index: swap the scan under an Unnest for an
    array-index search, keeping the whole Unnest+Select chain as the
    residual (the rewrite consumes nothing)."""

    DELIV = SecondaryIndexSpec("oDelivery", "array", ("ol_delivery_d",),
                               array_path="o_orderline")

    def unnest_plan(self, cond, outer=False, collection=None):
        un = Unnest(3, collection or fa(2, "o_orderline"), outer=outer,
                    inputs=[scan()])
        return DistributeResult(LVar(3), inputs=[Select(cond,
                                                        inputs=[un])])

    def test_array_index_chosen_with_full_residual(self):
        md = FakeMetadata([self.DELIV])
        cond = LCall("lt", [fa(3, "ol_delivery_d"), LConst(100)])
        optimized = optimize(self.unnest_plan(cond), md)
        search = next(op for op in _walk(optimized)
                      if isinstance(op, SecondaryIndexSearch))
        assert search.index_kind == "array"
        assert search.index_name == "oDelivery"
        assert search.hi == [LConst(100)] and not search.hi_inclusive
        # nothing consumed: the Unnest and the Select both survive, and
        # the search sits *below* the Unnest
        sig = plan_signature(optimized)
        assert "Unnest" in sig and "Select" in sig
        unnest = next(op for op in _walk(optimized)
                      if isinstance(op, Unnest))
        assert any(isinstance(op, SecondaryIndexSearch)
                   for op in _walk(unnest))

    def test_eq_bounds_both_sides(self):
        md = FakeMetadata([self.DELIV])
        cond = LCall("eq", [fa(3, "ol_delivery_d"), LConst(7)])
        optimized = optimize(self.unnest_plan(cond), md)
        search = next(op for op in _walk(optimized)
                      if isinstance(op, SecondaryIndexSearch))
        assert search.lo == [LConst(7)] and search.hi == [LConst(7)]

    def test_elementwise_index_on_unnest_var(self):
        md = FakeMetadata([SecondaryIndexSpec("byTag", "array", (),
                                              array_path="tags")])
        un = Unnest(3, fa(2, "tags"), inputs=[scan()])
        cond = LCall("eq", [LVar(3), LConst("big data")])
        plan = DistributeResult(LVar(1), inputs=[Select(cond,
                                                        inputs=[un])])
        optimized = optimize(plan, md)
        search = next(op for op in _walk(optimized)
                      if isinstance(op, SecondaryIndexSearch))
        assert search.index_kind == "array"
        assert search.lo == [LConst("big data")]

    def test_wrong_path_no_fire(self):
        md = FakeMetadata([SecondaryIndexSpec("other", "array",
                                              ("ol_delivery_d",),
                                              array_path="items")])
        cond = LCall("lt", [fa(3, "ol_delivery_d"), LConst(100)])
        optimized = optimize(self.unnest_plan(cond), md)
        assert "SecondaryIndexSearch" not in plan_signature(optimized)

    def test_outer_unnest_no_fire(self):
        md = FakeMetadata([self.DELIV])
        cond = LCall("lt", [fa(3, "ol_delivery_d"), LConst(100)])
        optimized = optimize(self.unnest_plan(cond, outer=True), md)
        assert "SecondaryIndexSearch" not in plan_signature(optimized)

    def test_prefix_bounded_composite_fires(self):
        """A bound on a *prefix* of a composite element key is enough:
        maintenance indexes every element whose first key field is
        known (trailing MISSING parts stored verbatim), so a prefix
        search still sees a superset and the residual chain re-checks
        everything."""
        md = FakeMetadata([SecondaryIndexSpec(
            "byDayAmt", "array", ("ol_delivery_d", "ol_amount"),
            array_path="o_orderline")])
        cond = LCall("lt", [fa(3, "ol_delivery_d"), LConst(100)])
        optimized = optimize(self.unnest_plan(cond), md)
        sig = plan_signature(optimized)
        assert "SecondaryIndexSearch" in sig
        assert "Unnest" in sig          # residual chain kept intact

    def test_suffix_only_bound_no_fire(self):
        """A bound on a trailing key field alone gives the search
        nothing to seek on (elements with a MISSING first field have
        entries the bound can't reach in order): no fire."""
        md = FakeMetadata([SecondaryIndexSpec(
            "byDayAmt", "array", ("ol_delivery_d", "ol_amount"),
            array_path="o_orderline")])
        cond = LCall("lt", [fa(3, "ol_amount"), LConst(100)])
        optimized = optimize(self.unnest_plan(cond), md)
        assert "SecondaryIndexSearch" not in plan_signature(optimized)

    def test_composite_fully_bounded_fires(self):
        md = FakeMetadata([SecondaryIndexSpec(
            "byDayAmt", "array", ("ol_delivery_d", "ol_amount"),
            array_path="o_orderline")])
        cond = LCall("and", [
            LCall("eq", [fa(3, "ol_delivery_d"), LConst(7)]),
            LCall("ge", [fa(3, "ol_amount"), LConst(5)]),
        ])
        optimized = optimize(self.unnest_plan(cond), md)
        search = next(op for op in _walk(optimized)
                      if isinstance(op, SecondaryIndexSearch))
        assert search.lo == [LConst(7), LConst(5)]
        assert search.hi == [LConst(7)]

    def test_disabled_by_flag(self):
        md = FakeMetadata([self.DELIV])
        cond = LCall("lt", [fa(3, "ol_delivery_d"), LConst(100)])
        optimized = optimize(self.unnest_plan(cond), md,
                             enable_index_access=False)
        assert "SecondaryIndexSearch" not in plan_signature(optimized)

    def test_predicate_on_record_not_element_no_fire(self):
        """A bound on the *record* (not the unnested element) must not
        drive the array index."""
        md = FakeMetadata([self.DELIV])
        cond = LCall("lt", [fa(2, "o_id"), LConst(100)])
        optimized = optimize(self.unnest_plan(cond), md)
        assert not any(isinstance(op, SecondaryIndexSearch)
                       and op.index_kind == "array"
                       for op in _walk(optimized))
