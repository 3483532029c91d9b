"""Hadoop configuration-file interchange (mapred-site.xml style).

Lets a tuned :class:`Configuration` leave the simulator: export the
recommendation as the ``<property>`` XML Hadoop consumes, or import an
existing site file to seed a search / run a what-if against it.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from typing import Dict, Optional, Union

from repro.core.configuration import Configuration
from repro.core.parameters import PARAMETER_SPACE


def _format_value(name: str, value: float) -> str:
    if name in PARAMETER_SPACE and PARAMETER_SPACE.spec(name).kind == "int":
        return str(int(round(value)))
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def to_hadoop_xml(
    config: Configuration,
    description: str = "Generated by the MRONLINE reproduction",
) -> str:
    """Render *config* as a Hadoop ``configuration`` XML document."""
    root = ET.Element("configuration")
    root.append(ET.Comment(f" {description} "))
    for name in sorted(config):
        prop = ET.SubElement(root, "property")
        ET.SubElement(prop, "name").text = name
        ET.SubElement(prop, "value").text = _format_value(name, float(config[name]))
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True)


def _parse_value(name: str, raw: str) -> Union[float, str]:
    """A Table-2 property's number; other properties' number or text."""
    try:
        value: Optional[float] = float(raw)
    except ValueError:
        value = None
    if name not in PARAMETER_SPACE:
        # Other Hadoop settings ride along untouched.
        return raw if value is None else value
    if value is None or math.isnan(value):
        raise ValueError(f"{name}: expected a number, got {raw!r}")
    return value


def from_hadoop_xml(payload: str) -> Configuration:
    """Parse a Hadoop site file into a :class:`Configuration`.

    Unknown properties are carried along verbatim (Hadoop files mix
    tuning parameters with unrelated settings); known parameters are
    clamped to their Table-2 ranges, and a value that is not a number
    (or is NaN) raises a :class:`ValueError` naming the property.
    """
    root = ET.fromstring(payload)
    if root.tag != "configuration":
        raise ValueError(f"expected <configuration> root, got <{root.tag}>")
    values: Dict[str, Union[float, str]] = {}
    for prop in root.findall("property"):
        name_el = prop.find("name")
        value_el = prop.find("value")
        if name_el is None or value_el is None or not name_el.text:
            raise ValueError("malformed <property>: needs <name> and <value>")
        name = name_el.text.strip()
        values[name] = _parse_value(name, (value_el.text or "").strip())
    return Configuration(values)  # type: ignore[arg-type]


def save_hadoop_xml(config: Configuration, path: str, **kwargs) -> None:
    with open(path, "w") as fh:
        fh.write(to_hadoop_xml(config, **kwargs))


def load_hadoop_xml(path: str) -> Configuration:
    with open(path) as fh:
        return from_hadoop_xml(fh.read())
