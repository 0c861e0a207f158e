"""Unit tests for the element tree."""

import pytest

from repro.errors import XmlError
from repro.xmlkit import Element, element, text_of


def sample_tree():
    root = Element("clinic")
    patient = root.append(Element("patient", {"id": "p1"}))
    patient.append(element("name", "Alice"))
    patient.append(element("dob", "1970-01-01"))
    tests = patient.append(Element("tests"))
    tests.append(element("test", "75", type="HbA1c"))
    tests.append(element("test", "56", type="Lipid"))
    return root


class TestConstruction:
    def test_element_requires_valid_tag(self):
        with pytest.raises(XmlError):
            Element("")
        with pytest.raises(XmlError):
            Element("1bad")
        with pytest.raises(XmlError):
            Element("has space")

    def test_children_must_be_element_or_str(self):
        root = Element("r")
        with pytest.raises(XmlError):
            root.append(42)

    def test_append_returns_the_child(self):
        root = Element("r")
        child = root.append(Element("c"))
        assert root.children == [child]

    def test_set_attribute_coerces_to_str(self):
        node = Element("n")
        node.set("count", 3)
        assert node.attrs["count"] == "3"

    def test_set_rejects_bad_attribute_name(self):
        node = Element("n")
        with pytest.raises(XmlError):
            node.set("bad name", "v")

    def test_element_helper_builds_text_and_attrs(self):
        node = element("dob", "1970-01-01", unit="year")
        assert node.text == "1970-01-01"
        assert node.attrs == {"unit": "year"}

    def test_extend_appends_all(self):
        node = Element("r")
        node.extend([Element("a"), "txt", Element("b")])
        assert [c.tag for c in node.child_elements()] == ["a", "b"]

    def test_remove_detaches_the_child(self):
        root = Element("r")
        child = root.append(Element("c"))
        root.remove(child)
        assert root.children == []


class TestNavigation:
    def test_find_returns_first_match(self):
        root = sample_tree()
        patient = root.find("patient")
        assert patient is not None
        assert patient.get("id") == "p1"

    def test_find_missing_returns_none(self):
        assert sample_tree().find("nope") is None

    def test_find_all(self):
        tests = sample_tree().find("patient").find("tests")
        assert len(tests.find_all("test")) == 2

    def test_iter_preorder(self):
        tags = [n.tag for n in sample_tree().iter()]
        assert tags == ["clinic", "patient", "name", "dob", "tests", "test", "test"]

    def test_text_property_is_direct_text_only(self):
        root = sample_tree()
        assert root.text == ""
        assert root.find("patient").find("name").text == "Alice"

    def test_text_of_collects_descendants(self):
        tests = sample_tree().find("patient").find("tests")
        assert text_of(tests) == "7556"


class TestCopyEquality:
    def test_copy_is_deep_and_detached(self):
        root = sample_tree()
        clone = root.copy()
        assert clone.structurally_equal(root)
        clone.find("patient").set("id", "p2")
        assert root.find("patient").get("id") == "p1"

    def test_structural_equality_ignores_whitespace_text(self):
        a = Element("r", children=[Element("c"), "  "])
        b = Element("r", children=[Element("c")])
        assert a.structurally_equal(b)

    def test_structural_inequality_on_attrs(self):
        a = Element("r", {"x": "1"})
        b = Element("r", {"x": "2"})
        assert not a.structurally_equal(b)

    def test_structural_inequality_on_text(self):
        a = element("r", "hello")
        b = element("r", "world")
        assert not a.structurally_equal(b)

    def test_adjacent_text_merged_for_equality(self):
        a = Element("r", children=["he", "llo"])
        b = Element("r", children=["hello"])
        assert a.structurally_equal(b)
