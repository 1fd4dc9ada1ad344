"""Instance restart: the database comes back from its directory.

The catalog is data (Metadata.* datasets), so restart is bootstrapped
recovery — system datasets first, then the user datasets they describe,
with WAL replay restoring whatever only lived in memory components.
"""

import pytest

from repro import connect
from repro.common.errors import DuplicateKeyError


def build(path):
    db = connect(path)
    db.execute("""
        CREATE TYPE UserType AS {
            id: int, alias: string, age: int
        };
        CREATE TYPE MsgType AS CLOSED {
            messageId: int, text: string
        };
        CREATE DATASET Users(UserType) PRIMARY KEY id;
        CREATE DATASET Msgs(MsgType) PRIMARY KEY messageId;
        CREATE INDEX byAlias ON Users(alias);
        CREATE INDEX byText ON Msgs(text) TYPE KEYWORD;
    """)
    for i in range(40):
        db.execute(
            f'INSERT INTO Users ({{"id": {i}, "alias": "u{i:02d}", '
            f'"age": {20 + i % 7}}});'
        )
    db.execute('INSERT INTO Msgs ({"messageId": 1, '
               '"text": "restart survivability matters"});')
    return db


class TestRestart:
    def test_data_survives_restart(self, tmp_path):
        path = str(tmp_path / "db")
        db = build(path)
        db.flush_dataset("Users")            # some data durable...
        db.execute('INSERT INTO Users ({"id": 100, "alias": "late", '
                   '"age": 1});')            # ...some only in the WAL
        db.close()

        db2 = connect(path)
        assert db2.query("SELECT VALUE COUNT(*) FROM Users u;") == [41]
        assert db2.query(
            "SELECT VALUE u.alias FROM Users u WHERE u.id = 100;"
        ) == ["late"]
        db2.close()

    def test_catalog_survives(self, tmp_path):
        path = str(tmp_path / "db")
        build(path).close()
        db2 = connect(path)
        datasets = db2.query("""
            SELECT VALUE d.DatasetName FROM Metadata.Dataset d
            WHERE d.DataverseName = 'Default';
        """)
        assert sorted(datasets) == ["Msgs", "Users"]
        indexes = db2.query(
            "SELECT VALUE i.IndexName FROM Metadata.`Index` i;")
        assert sorted(indexes) == ["byAlias", "byText"]
        db2.close()

    def test_secondary_indexes_work_after_restart(self, tmp_path):
        path = str(tmp_path / "db")
        build(path).close()
        db2 = connect(path)
        result = db2.execute(
            "SELECT VALUE u.id FROM Users u WHERE u.alias = 'u07';")
        assert result.rows == [7]
        assert "index-search" in result.plan
        kw = db2.query("SELECT VALUE m.messageId FROM Msgs m "
                       "WHERE ftcontains(m.text, 'survivability');")
        assert kw == [1]
        db2.close()

    def test_type_validation_survives(self, tmp_path):
        from repro.common.errors import TypeError_

        path = str(tmp_path / "db")
        build(path).close()
        db2 = connect(path)
        with pytest.raises(TypeError_):     # Msgs is CLOSED
            db2.execute('INSERT INTO Msgs ({"messageId": 9, '
                        '"text": "x", "extra": 1});')
        db2.close()

    def test_pk_uniqueness_survives(self, tmp_path):
        path = str(tmp_path / "db")
        build(path).close()
        db2 = connect(path)
        with pytest.raises(DuplicateKeyError):
            db2.execute('INSERT INTO Users ({"id": 5, "alias": "dup", '
                        '"age": 0});')
        db2.close()

    def test_writes_after_restart_and_second_restart(self, tmp_path):
        path = str(tmp_path / "db")
        build(path).close()
        db2 = connect(path)
        db2.execute('INSERT INTO Users ({"id": 200, "alias": "gen2", '
                    '"age": 2});')
        db2.execute("DELETE FROM Users u WHERE u.id = 0;")
        db2.close()
        db3 = connect(path)
        assert db3.query("SELECT VALUE COUNT(*) FROM Users u;") == [40]
        assert db3.query("SELECT VALUE u.alias FROM Users u "
                         "WHERE u.id = 200;") == ["gen2"]
        assert db3.query("SELECT VALUE u FROM Users u "
                         "WHERE u.id = 0;") == []
        db3.close()

    def test_dataverses_survive(self, tmp_path):
        path = str(tmp_path / "db")
        db = connect(path)
        db.execute("""
            CREATE DATAVERSE lab; USE lab;
            CREATE TYPE T AS { id: int };
            CREATE DATASET D(T) PRIMARY KEY id;
            INSERT INTO D ({"id": 7, "note": "in lab"});
        """)
        db.close()
        db2 = connect(path)
        assert db2.query("SELECT VALUE d.note FROM lab.D d;") == ["in lab"]
        db2.close()

    def test_external_dataset_survives(self, tmp_path):
        data = tmp_path / "ext.adm"
        data.write_text('{"id": 1, "v": "external"}\n')
        path = str(tmp_path / "db")
        db = connect(path)
        db.execute(f"""
            CREATE TYPE ET AS {{ id: int }};
            CREATE EXTERNAL DATASET Ext(ET) USING localfs
            (("path"="{data}"), ("format"="adm"));
        """)
        db.close()
        db2 = connect(path)
        assert db2.query("SELECT VALUE e.v FROM Ext e;") == ["external"]
        db2.close()

    def test_config_persisted(self, tmp_path):
        from repro import ClusterConfig

        path = str(tmp_path / "db")
        db = connect(path, ClusterConfig(num_nodes=3,
                                         partitions_per_node=1))
        db.close()
        db2 = connect(path)   # config comes from instance.json
        assert db2.cluster.config.num_nodes == 3
        assert db2.cluster.num_partitions == 3
        db2.close()

    def test_marker_with_options_this_version_dropped(self, tmp_path):
        """instance.json is input from outside the program: a directory
        written by a version whose config had more options, or a whole
        section this version dropped (the ``executor`` section, whose
        fields were ``mode`` and, earlier, ``workers`` among others),
        must reopen, ignoring what this version no longer knows."""
        import dataclasses
        import json
        import os

        from repro import ClusterConfig

        path = str(tmp_path / "db")
        build(path).close()
        marker = os.path.join(path, "instance.json")
        with open(marker) as f:
            data = json.load(f)
        data["executor"] = {"mode": "serial", "workers": None,
                            "option_since_removed": True}
        for section in ("node", "cost", "resilience"):
            data[section]["option_since_removed"] = 1
        with open(marker, "w") as f:
            json.dump(data, f)
        db2 = connect(path)
        assert db2.query("SELECT VALUE COUNT(*) FROM Users u;") == [40]
        db2.close()
        assert "executor" not in {
            f.name for f in dataclasses.fields(ClusterConfig)}
