"""Tests for Hadoop XML configuration interchange."""

import math
import re

import pytest

from repro.core import parameters as P
from repro.core.configuration import Configuration
from repro.core.hadoop_xml import (
    from_hadoop_xml,
    load_hadoop_xml,
    save_hadoop_xml,
    to_hadoop_xml,
)


class TestExport:
    def test_contains_every_parameter(self):
        xml = to_hadoop_xml(Configuration())
        for name in (P.IO_SORT_MB, P.SHUFFLE_PARALLELCOPIES, P.MAP_MEMORY_MB):
            assert f"<name>{name}</name>" in xml

    def test_int_parameters_render_without_decimals(self):
        xml = to_hadoop_xml(Configuration({P.IO_SORT_MB: 250}))
        assert "<value>250</value>" in xml
        assert "250.0" not in xml

    def test_float_parameters_render_compactly(self):
        xml = to_hadoop_xml(Configuration({P.SORT_SPILL_PERCENT: 0.99}))
        assert "<value>0.99</value>" in xml

    def test_declaration_and_root(self):
        xml = to_hadoop_xml(Configuration())
        assert xml.startswith("<?xml")
        assert "<configuration>" in xml


class TestImport:
    def test_roundtrip_preserves_values(self):
        original = Configuration(
            {P.IO_SORT_MB: 320, P.SHUFFLE_PARALLELCOPIES: 20, P.SORT_SPILL_PERCENT: 0.95}
        )
        restored = from_hadoop_xml(to_hadoop_xml(original))
        for name in original:
            assert float(restored[name]) == pytest.approx(float(original[name]))

    def test_unknown_properties_carried(self):
        xml = """<?xml version='1.0'?>
        <configuration>
          <property><name>dfs.replication</name><value>3</value></property>
          <property><name>mapreduce.job.name</name><value>my job</value></property>
        </configuration>"""
        cfg = from_hadoop_xml(xml)
        assert cfg["dfs.replication"] == 3.0
        assert cfg["mapreduce.job.name"] == "my job"

    def test_unknown_properties_never_rejected(self):
        xml = """<configuration>
          <property><name>yarn.nodemanager.vmem-pmem-ratio</name><value>nan</value></property>
          <property><name>mapreduce.map.java.opts</name><value>-Xmx100m</value></property>
        </configuration>"""
        cfg = from_hadoop_xml(xml)
        assert math.isnan(cfg["yarn.nodemanager.vmem-pmem-ratio"])
        assert cfg["mapreduce.map.java.opts"] == "-Xmx100m"

    @pytest.mark.parametrize("raw", ["100m", "", "nan", "NaN"])
    def test_malformed_known_value_names_the_property(self, raw):
        xml = f"""<configuration>
          <property><name>{P.SHUFFLE_PARALLELCOPIES}</name><value>7</value></property>
          <property><name>{P.IO_SORT_MB}</name><value>{raw}</value></property>
        </configuration>"""
        with pytest.raises(ValueError, match=re.escape(P.IO_SORT_MB)):
            from_hadoop_xml(xml)

    def test_known_parameters_clamped(self):
        xml = """<configuration>
          <property><name>mapreduce.task.io.sort.mb</name><value>999999</value></property>
        </configuration>"""
        cfg = from_hadoop_xml(xml)
        assert cfg[P.IO_SORT_MB] == 1600  # spec upper bound

    def test_wrong_root_rejected(self):
        with pytest.raises(ValueError):
            from_hadoop_xml("<settings></settings>")

    def test_malformed_property_rejected(self):
        with pytest.raises(ValueError):
            from_hadoop_xml("<configuration><property><name>x</name></property></configuration>")

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "mapred-site.xml")
        save_hadoop_xml(Configuration({P.IO_SORT_MB: 210}), path)
        assert load_hadoop_xml(path)[P.IO_SORT_MB] == 210
