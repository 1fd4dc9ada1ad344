"""End-to-end SQL++ tests through the full stack (parse -> translate ->
optimize -> jobgen -> execute on the simulated cluster)."""

import pytest

from repro import connect
from repro.common.errors import (
    AsterixError,
    CompilationError,
    DuplicateKeyError,
    TypeError_,
)


@pytest.fixture
def db(tmp_path):
    instance = connect(str(tmp_path / "db"))
    instance.set_session_now("2019-04-08T00:00:00")
    yield instance
    instance.close()


@pytest.fixture
def social(db):
    """A small social-network database."""
    db.execute("""
        CREATE TYPE UserType AS {
            id: int, alias: string, name: string, age: int,
            friendIds: {{ int }}
        };
        CREATE TYPE MessageType AS {
            messageId: int, authorId: int, message: string,
            senderLocation: point?
        };
        CREATE DATASET Users(UserType) PRIMARY KEY id;
        CREATE DATASET Messages(MessageType) PRIMARY KEY messageId;
    """)
    for i in range(12):
        db.execute(f"""
            INSERT INTO Users ({{"id": {i}, "alias": "u{i:02d}",
                "name": "User {i}", "age": {20 + i % 4},
                "friendIds": {{{{{", ".join(str(j) for j in range(i % 3))}}}}}
            }});
        """)
    for m in range(20):
        author = m % 12
        x, y = (m % 10) * 10.0, (m // 10) * 10.0
        db.execute(f"""
            INSERT INTO Messages ({{"messageId": {m}, "authorId": {author},
                "message": "message number {m} from user {author}",
                "senderLocation": point("{x},{y}")}});
        """)
    return db


class TestBasicQueries:
    def test_expression_query(self, db):
        assert db.query("SELECT VALUE 1 + 2;") == [3]

    def test_full_scan(self, social):
        rows = social.query("SELECT VALUE u.id FROM Users u;")
        assert sorted(rows) == list(range(12))

    def test_where_filter(self, social):
        rows = social.query(
            "SELECT VALUE u.alias FROM Users u WHERE u.age = 22;")
        assert sorted(rows) == ["u02", "u06", "u10"]

    def test_projection_objects(self, social):
        rows = social.query(
            "SELECT u.alias AS a, u.age FROM Users u WHERE u.id = 3;")
        assert rows == [{"a": "u03", "age": 23}]

    def test_select_star(self, social):
        rows = social.query("SELECT * FROM Users u WHERE u.id = 1;")
        assert rows[0]["u"]["alias"] == "u01"

    def test_order_by(self, social):
        rows = social.query(
            "SELECT VALUE u.alias FROM Users u ORDER BY u.alias DESC;")
        assert rows == sorted(rows, reverse=True)

    def test_limit_offset(self, social):
        rows = social.query(
            "SELECT VALUE u.id FROM Users u ORDER BY u.id "
            "LIMIT 3 OFFSET 2;")
        assert rows == [2, 3, 4]

    def test_distinct(self, social):
        rows = social.query("SELECT DISTINCT VALUE u.age FROM Users u;")
        assert sorted(rows) == [20, 21, 22, 23]

    def test_pk_point_query(self, social):
        rows = social.query(
            "SELECT VALUE u.name FROM Users u WHERE u.id = 7;")
        assert rows == ["User 7"]

    def test_pk_range_query(self, social):
        rows = social.query(
            "SELECT VALUE u.id FROM Users u WHERE u.id >= 4 AND u.id < 7;")
        assert sorted(rows) == [4, 5, 6]

    def test_missing_field_access(self, social):
        # a MISSING result value is not serialized into the result set
        rows = social.query(
            "SELECT VALUE u.nosuchfield FROM Users u WHERE u.id = 0;")
        assert rows == []

    def test_case_expression(self, social):
        rows = social.query("""
            SELECT VALUE CASE WHEN u.age >= 22 THEN 'old' ELSE 'young' END
            FROM Users u WHERE u.id < 2;
        """)
        assert sorted(rows) == ["young", "young"]


class TestJoinsAndNesting:
    def test_equi_join(self, social):
        rows = social.query("""
            SELECT u.alias AS who, m.messageId AS mid
            FROM Users u, Messages m
            WHERE m.authorId = u.id AND u.id = 2;
        """)
        assert sorted(r["mid"] for r in rows) == [2, 14]

    def test_explicit_join_syntax(self, social):
        rows = social.query("""
            SELECT VALUE m.messageId
            FROM Users u JOIN Messages m ON m.authorId = u.id
            WHERE u.age = 20;
        """)
        expected = [m for m in range(20) if (m % 12) % 4 == 0]
        assert sorted(rows) == expected

    def test_left_outer_join(self, social):
        social.execute(
            'INSERT INTO Users ({"id": 99, "alias": "lonely", '
            '"name": "No Messages", "age": 50, "friendIds": {{}}});')
        rows = social.query("""
            SELECT u.alias AS a, m.messageId AS mid
            FROM Users u LEFT JOIN Messages m ON m.authorId = u.id
            WHERE u.id = 99;
        """)
        assert rows == [{"a": "lonely"}]  # mid is MISSING -> dropped

    def test_unnest(self, social):
        rows = social.query("""
            SELECT VALUE f FROM Users u UNNEST u.friendIds f
            WHERE u.id = 5;
        """)
        assert sorted(rows) == [0, 1]

    def test_quantified_over_field(self, social):
        rows = social.query("""
            SELECT VALUE u.id FROM Users u
            WHERE SOME f IN u.friendIds SATISFIES f = 1;
        """)
        # users with i%3 >= 2 have friend 1
        assert sorted(rows) == [2, 5, 8, 11]

    def test_semijoin_from_quantifier_over_dataset(self, social):
        rows = social.query("""
            SELECT VALUE u.alias FROM Users u
            WHERE SOME m IN Messages SATISFIES m.authorId = u.id
                  AND m.messageId >= 18;
        """)
        assert sorted(rows) == ["u06", "u07"]

    def test_exists_subquery(self, social):
        rows = social.query("""
            SELECT VALUE u.alias FROM Users u
            WHERE EXISTS (SELECT VALUE m FROM Messages m
                          WHERE m.authorId = u.id AND m.messageId > 17);
        """)
        assert sorted(rows) == ["u06", "u07"]

    def test_inline_subquery_over_field(self, social):
        rows = social.query("""
            SELECT VALUE (SELECT VALUE f * 10 FROM u.friendIds f
                          WHERE f > 0)
            FROM Users u WHERE u.id = 5;
        """)
        assert rows == [[10]]


class TestGrouping:
    def test_group_by_count(self, social):
        rows = social.query("""
            SELECT age, COUNT(u) AS n FROM Users u GROUP BY u.age AS age;
        """)
        assert sorted((r["age"], r["n"]) for r in rows) == [
            (20, 3), (21, 3), (22, 3), (23, 3)
        ]

    def test_group_by_multiple_aggregates(self, social):
        rows = social.query("""
            SELECT a, COUNT(u) AS n, MIN(u.id) AS lo, MAX(u.id) AS hi
            FROM Users u GROUP BY u.age AS a HAVING COUNT(u) > 1;
        """)
        assert len(rows) == 4
        for r in rows:
            assert r["lo"] < r["hi"]

    def test_global_aggregate(self, social):
        rows = social.query("SELECT COUNT(*) AS n FROM Messages m;")
        assert rows == [{"n": 20}]

    def test_avg_sum(self, social):
        rows = social.query(
            "SELECT AVG(u.age) AS a, SUM(u.age) AS s FROM Users u;")
        assert rows[0]["s"] == sum(20 + i % 4 for i in range(12))

    def test_group_as(self, social):
        rows = social.query("""
            SELECT a, g FROM Users u GROUP BY u.age AS a GROUP AS g
            ORDER BY a LIMIT 1;
        """)
        assert rows[0]["a"] == 20
        assert len(rows[0]["g"]) == 3
        assert all("u" in item for item in rows[0]["g"])

    def test_order_by_aggregate(self, social):
        rows = social.query("""
            SELECT a FROM Users u GROUP BY u.age AS a
            ORDER BY COUNT(u) DESC, a;
        """)
        assert [r["a"] for r in rows] == [20, 21, 22, 23]

    def test_fig3c_shape(self, social):
        """The paper's Fig. 3(c) pattern against the social fixture."""
        rows = social.query("""
            SELECT nf AS numFriends, COUNT(user) AS activeUsers
            FROM Users user
            LET nf = COLL_COUNT(user.friendIds)
            WHERE SOME m IN Messages SATISFIES user.id = m.authorId
            GROUP BY nf;
        """)
        by_nf = {r["numFriends"]: r["activeUsers"] for r in rows}
        assert by_nf == {0: 4, 1: 4, 2: 4}


class TestDML:
    def test_insert_and_read_back(self, db):
        db.execute("""
            CREATE TYPE T AS { id: int };
            CREATE DATASET D(T) PRIMARY KEY id;
            INSERT INTO D ({"id": 1, "x": "a"});
        """)
        assert db.query("SELECT VALUE d.x FROM D d;") == ["a"]

    def test_insert_duplicate_pk_fails(self, db):
        db.execute("""
            CREATE TYPE T AS { id: int };
            CREATE DATASET D(T) PRIMARY KEY id;
            INSERT INTO D ({"id": 1});
        """)
        with pytest.raises(DuplicateKeyError):
            db.execute('INSERT INTO D ({"id": 1});')

    def test_upsert_replaces(self, db):
        db.execute("""
            CREATE TYPE T AS { id: int };
            CREATE DATASET D(T) PRIMARY KEY id;
            UPSERT INTO D ({"id": 1, "v": "old"});
            UPSERT INTO D ({"id": 1, "v": "new"});
        """)
        assert db.query("SELECT VALUE d.v FROM D d;") == ["new"]

    def test_insert_array_of_records(self, db):
        db.execute("""
            CREATE TYPE T AS { id: int };
            CREATE DATASET D(T) PRIMARY KEY id;
        """)
        result = db.execute(
            'INSERT INTO D ([{"id": 1}, {"id": 2}, {"id": 3}]);')
        assert "3 record(s)" in result.message

    def test_insert_from_query(self, db):
        db.execute("""
            CREATE TYPE T AS { id: int };
            CREATE DATASET Src(T) PRIMARY KEY id;
            CREATE DATASET Dst(T) PRIMARY KEY id;
            INSERT INTO Src ([{"id": 1, "x": 5}, {"id": 2, "x": 10}]);
            INSERT INTO Dst (SELECT VALUE s FROM Src s WHERE s.x > 7);
        """)
        assert db.query("SELECT VALUE d.id FROM Dst d;") == [2]

    def test_delete_where(self, db):
        db.execute("""
            CREATE TYPE T AS { id: int };
            CREATE DATASET D(T) PRIMARY KEY id;
            INSERT INTO D ([{"id": 1}, {"id": 2}, {"id": 3}]);
        """)
        result = db.execute("DELETE FROM D d WHERE d.id < 3;")
        assert "2 record(s)" in result.message
        assert db.query("SELECT VALUE d.id FROM D d;") == [3]

    def test_type_validation_on_insert(self, db):
        db.execute("""
            CREATE TYPE T AS CLOSED { id: int, name: string };
            CREATE DATASET D(T) PRIMARY KEY id;
        """)
        with pytest.raises(TypeError_):
            db.execute('INSERT INTO D ({"id": 1, "name": "x", "z": 2});')

    def test_open_type_allows_extras(self, db):
        db.execute("""
            CREATE TYPE T AS { id: int };
            CREATE DATASET D(T) PRIMARY KEY id;
            INSERT INTO D ({"id": 1, "anything": [1, {"deep": true}]});
        """)
        rows = db.query("SELECT VALUE d.anything[1].deep FROM D d;")
        assert rows == [True]


class TestIndexUsage:
    def test_secondary_index_plan_and_results(self, social):
        social.execute("CREATE INDEX byAge ON Users(age);")
        with_index = social.execute(
            "SELECT VALUE u.id FROM Users u WHERE u.age = 21;")
        without = social.execute(
            "SELECT VALUE u.id FROM Users u WHERE u.age = 21;",
            enable_index_access=False)
        assert sorted(with_index.rows) == sorted(without.rows) == [1, 5, 9]
        assert "index-search" in with_index.plan
        assert "index-search" not in without.plan

    def test_rtree_index_spatial_query(self, social):
        social.execute(
            "CREATE INDEX byLoc ON Messages(senderLocation) TYPE RTREE;")
        result = social.execute("""
            SELECT VALUE m.messageId FROM Messages m
            WHERE spatial_intersect(m.senderLocation,
                create_rectangle(create_point(0.0, 0.0),
                                 create_point(35.0, 5.0)));
        """)
        assert sorted(result.rows) == [0, 1, 2, 3]
        assert "rtree-index-search" in result.plan

    def test_keyword_index_ftcontains(self, social):
        social.execute(
            "CREATE INDEX byMsg ON Messages(message) TYPE KEYWORD;")
        result = social.execute("""
            SELECT VALUE m.messageId FROM Messages m
            WHERE ftcontains(m.message, 'number 7');
        """)
        # conjunctive token semantics: message 19 ("...from user 7")
        # also contains both tokens
        assert sorted(result.rows) == [7, 19]
        assert "keyword-index-search" in result.plan

    @pytest.mark.parametrize("query, method, index", [
        ("SELECT VALUE r.id FROM D r WHERE r.address.city = 'c3';",
         "btree-index", "byCity"),
        ("SELECT VALUE r.id FROM D r WHERE r.address.city >= 'c2' "
         "AND r.address.city < 'c4' AND r.zip > 1;", "btree-index", "byCity"),
        ("SELECT VALUE r.id FROM D r WHERE spatial_intersect("
         "r.address.loc, create_rectangle(create_point(0.0, 0.0), "
         "create_point(5.0, 5.0)));", "rtree-index", "byLoc"),
        ("SELECT VALUE r.id FROM D r "
         "WHERE ftcontains(r.profile.bio, 'number 2');",
         "keyword-index", "byBio"),
        ("SELECT VALUE r.id FROM D r WHERE ftcontains(r.profile.nick, 'fan');",
         "primary-scan", None),
    ], ids=["btree-eq", "btree-range", "rtree", "keyword", "ngram-unread"])
    def test_nested_path_indexes_are_read(self, db, query, method, index):
        """An index on a nested path is maintained through the dotted
        path, so a predicate on that path reads it.  An n-gram search
        misses a word that is not the whole field text, so ``ftcontains``
        on a nested n-gram path stays a scan."""
        from repro.adm import APoint
        from tests.reference import assert_same_rows, reference_rows

        db.execute("""
            CREATE TYPE T AS { id: int };
            CREATE DATASET D(T) PRIMARY KEY id;
            CREATE INDEX byCity ON D(address.city);
            CREATE INDEX byLoc ON D(address.loc) TYPE RTREE;
            CREATE INDEX byBio ON D(profile.bio) TYPE KEYWORD;
            CREATE INDEX byNick ON D(profile.nick) TYPE NGRAM(3);
        """)
        records = [{"id": i, "zip": i % 4,
                    "address": {"city": f"c{i % 5}",
                                "loc": APoint(float(i), float(i % 7))},
                    "profile": {"bio": f"likes number {i % 3}",
                                "nick": f"{i % 3} fan"}}
                   for i in range(20)]
        records.append({"id": 20, "address": "no fields"})
        for record in records:
            db.cluster.insert_record("Default.D", dict(record))
        db.flush_dataset("D")
        expected = {"dataset": "Default.D", "method": method}
        if index:
            expected["index"] = index
        assert db.explain(query).access_methods == [expected]
        rows = db.query(query)
        assert rows
        assert_same_rows(rows, db.query(query, enable_index_access=False))
        assert_same_rows(rows, reference_rows(query, {"D": records},
                                              db.metadata))


class TestMetadataQueries:
    def test_catalog_is_queryable(self, social):
        rows = social.query("""
            SELECT VALUE d.DatasetName FROM Metadata.Dataset d
            WHERE d.DataverseName = 'Default';
        """)
        assert sorted(rows) == ["Messages", "Users"]

    def test_dataverses(self, db):
        db.execute("CREATE DATAVERSE science;")
        rows = db.query(
            "SELECT VALUE v.DataverseName FROM Metadata.Dataverse v;")
        assert "science" in rows and "Default" in rows

    def test_use_dataverse_scoping(self, db):
        db.execute("""
            CREATE DATAVERSE a;
            USE a;
            CREATE TYPE T AS { id: int };
            CREATE DATASET D(T) PRIMARY KEY id;
            INSERT INTO D ({"id": 7});
        """)
        assert db.query("SELECT VALUE d.id FROM D d;") == [7]
        db.execute("USE Default;")
        with pytest.raises(AsterixError):
            db.query("SELECT VALUE d.id FROM D d;")
        assert db.query("SELECT VALUE d.id FROM a.D d;") == [7]


class TestExplain:
    def test_explain_returns_plan(self, social):
        result = social.execute(
            "SELECT VALUE u FROM Users u WHERE u.id = 1;", explain=True)
        assert result.kind == "explain"
        assert "primary-search" in result.plan
        assert result.rows == []

    def test_constant_folding_in_plan(self, social):
        result = social.execute("""
            WITH cutoff AS 20 + 2
            SELECT VALUE u FROM Users u WHERE u.age > cutoff;
        """, explain=True)
        assert "22" in result.plan
        assert "cutoff" not in result.plan


class TestErrors:
    def test_unknown_dataset(self, db):
        with pytest.raises(AsterixError, match="NoSuch"):
            db.query("SELECT VALUE x FROM NoSuchThing x;")

    def test_unknown_function(self, db):
        with pytest.raises(AsterixError, match="frobnicate"):
            db.query("SELECT VALUE frobnicate(1);")

    def test_unresolved_variable(self, db):
        with pytest.raises(AsterixError, match="nosuchvar"):
            db.query("SELECT VALUE nosuchvar;")

    def test_aggregate_in_where_rejected(self, db):
        db.execute("""
            CREATE TYPE T AS { id: int };
            CREATE DATASET D(T) PRIMARY KEY id;
        """)
        with pytest.raises(CompilationError, match="grouping context"):
            db.query("SELECT VALUE d FROM D d WHERE SUM(d.id) > 1;")

    def test_select_aggregate_without_from(self, db):
        # implicit single-group aggregation over the empty-tuple source
        assert db.query("SELECT VALUE SUM(3);") == [3]


class TestUnionAll:
    def test_two_branches(self, db):
        db.execute("""
            CREATE TYPE T AS { id: int };
            CREATE DATASET A(T) PRIMARY KEY id;
            CREATE DATASET B(T) PRIMARY KEY id;
            INSERT INTO A ([{"id": 1, "v": "a1"}, {"id": 2, "v": "a2"}]);
            INSERT INTO B ([{"id": 1, "v": "b1"}]);
        """)
        rows = db.query("""
            SELECT VALUE a.v FROM A a
            UNION ALL
            SELECT VALUE b.v FROM B b;
        """)
        assert sorted(rows) == ["a1", "a2", "b1"]

    def test_bag_semantics_keeps_duplicates(self, db):
        db.execute("""
            CREATE TYPE T AS { id: int };
            CREATE DATASET A(T) PRIMARY KEY id;
            INSERT INTO A ([{"id": 1, "v": "same"}]);
        """)
        rows = db.query("""
            SELECT VALUE a.v FROM A a
            UNION ALL
            SELECT VALUE a.v FROM A a;
        """)
        assert rows == ["same", "same"]

    def test_three_branches_with_filters(self, social):
        rows = social.query("""
            SELECT VALUE u.alias FROM Users u WHERE u.id = 0
            UNION ALL
            SELECT VALUE u.alias FROM Users u WHERE u.id = 1
            UNION ALL
            SELECT VALUE m.messageId FROM Messages m WHERE m.messageId = 5;
        """)
        assert sorted(rows, key=repr) == sorted(
            [5, "u00", "u01"], key=repr)


class TestGeneralizedGrouping:
    """§IV-A: SQL++ 'exploit[s] the nested/composable data model of JSON
    by offering generalized support for grouping and aggregation' — the
    group is a first-class collection (GROUP AS) that nested subqueries
    can re-query."""

    def test_group_as_with_nested_subquery(self, social):
        rows = social.query("""
            SELECT age, (SELECT VALUE x.u.alias FROM g AS x) AS aliases
            FROM Users u GROUP BY u.age AS age GROUP AS g
            ORDER BY age;
        """)
        assert len(rows) == 4
        assert sorted(rows[0]["aliases"]) == ["u00", "u04", "u08"]

    def test_group_as_filtered_subquery(self, social):
        rows = social.query("""
            SELECT age,
                   (SELECT VALUE x.u.id FROM g AS x
                    WHERE x.u.id >= 8) AS elders
            FROM Users u GROUP BY u.age AS age GROUP AS g
            ORDER BY age;
        """)
        by_age = {r["age"]: sorted(r["elders"]) for r in rows}
        assert by_age[20] == [8]
        assert by_age[23] == [11]

    def test_nested_collection_in_result(self, social):
        """Results can be arbitrarily nested objects (non-flat output)."""
        rows = social.query("""
            SELECT VALUE {"user": u.alias,
                          "profile": {"age": u.age,
                                      "friends": u.friendIds}}
            FROM Users u WHERE u.id = 5;
        """)
        assert rows[0]["profile"]["age"] == 21
        assert sorted(rows[0]["profile"]["friends"]) == [0, 1]
