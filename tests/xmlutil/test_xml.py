"""Tests for the XML utilities (QNames, serialiser, parser) on ElementTree."""

from xml.etree.ElementTree import Element, SubElement

import pytest

from repro.errors import XmlError
from repro.xmlutil import Namespaces, QName, parse, serialize, serialize_pretty, text_of
from repro.xmlutil.qname import split_clark
from repro.xmlutil.serializer import encode_document


def same_tree(one: Element, two: Element) -> bool:
    """Equal tags, attributes, data text (see ``text_of``) and children."""
    return (
        one.tag == two.tag
        and one.attrib == two.attrib
        and text_of(one) == text_of(two)
        and len(one) == len(two)
        and all(same_tree(mine, theirs) for mine, theirs in zip(one, two))
    )


class TestQName:
    def test_clark_notation_roundtrip(self):
        qname = QName("http://example.org/ns", "item")
        assert qname.clark() == "{http://example.org/ns}item"
        assert split_clark(qname.clark()) == ("http://example.org/ns", "item")

    def test_plain_name(self):
        qname = QName.plain("item")
        assert qname.namespace is None
        assert qname.clark() == "item"

    @pytest.mark.parametrize("bad", ["", "has:colon", "has space"])
    def test_invalid_local_names_rejected(self, bad):
        with pytest.raises(XmlError):
            QName(None, bad)

    def test_malformed_clark_rejected(self):
        with pytest.raises(XmlError):
            split_clark("{unclosed")


class TestSerialisationAndParsing:
    def test_roundtrip_simple_document(self):
        root = Element("doc")
        SubElement(root, "child", {"attr": "value"}).text = "text"
        parsed = parse(serialize(root))
        assert same_tree(root, parsed)

    def test_roundtrip_namespaced_document(self):
        root = Element(QName(Namespaces.SOAP_ENVELOPE, "Envelope").clark())
        body = SubElement(root, QName(Namespaces.SOAP_ENVELOPE, "Body").clark())
        SubElement(body, "{urn:app}call", {"kind": "test", "{urn:app}flag": "1"})
        text = serialize(root)
        assert text.count("xmlns:") == 2
        assert '<ns0:call kind="test" ns0:flag="1"/>' in text
        assert same_tree(root, parse(text))

    def test_escaping_of_special_characters(self):
        root = Element("doc", {"attr": 'quote " and <angle>\ttab\nline\rcr'})
        root.text = "a < b & c > d\r\n"
        parsed = parse(serialize(root))
        assert parsed.text == "a < b & c > d\r\n"
        assert parsed.get("attr") == 'quote " and <angle>\ttab\nline\rcr'

    def test_well_known_prefixes_used(self):
        root = Element(QName(Namespaces.WSDL, "definitions").clark())
        assert "xmlns:wsdl=" in serialize(root)

    def test_deterministic_output(self):
        root = Element("doc")
        SubElement(root, "a", {"k": "v"})
        assert serialize(root) == serialize(root)

    def test_pretty_output_contains_newlines_and_parses(self):
        root = Element("doc")
        SubElement(root, "child").text = "x"
        pretty = serialize_pretty(root)
        assert "\n" in pretty
        assert same_tree(root, parse(pretty))

    def test_parse_bytes(self):
        assert parse(b"<root/>").tag == "root"

    def test_parse_malformed_rejected(self):
        with pytest.raises(XmlError):
            parse("<unclosed>")

    def test_parse_invalid_utf8_rejected(self):
        with pytest.raises(XmlError):
            parse(b"\xff\xfe<root/>")

    def test_xml_declaration_optional(self):
        root = Element("doc")
        assert serialize(root, xml_declaration=False).startswith("<doc")
        assert serialize(root).startswith("<?xml")

    def test_parse_returns_clark_notation(self):
        root = parse('<a:x xmlns:a="urn:a"><y a:k="v"/></a:x>')
        assert root.tag == "{urn:a}x"
        assert root[0].attrib == {"{urn:a}k": "v"}


class TestTextOf:
    def test_leaf_text_is_data(self):
        assert text_of(parse("<a>  padded  </a>")) == "  padded  "
        assert text_of(parse("<a/>")) == ""

    def test_indentation_of_a_parent_is_dropped(self):
        assert text_of(parse("<a>\n  <b/>\n</a>")) == ""


class TestEncodeDocument:
    def test_returns_utf8(self):
        assert encode_document("<a>é</a>") == "<a>é</a>".encode("utf-8")

    @pytest.mark.parametrize("char", ["\x00", "\x1b", "\ufffe", "\uffff", "\udfff"])
    def test_names_the_run_holding_an_illegal_character(self, char):
        with pytest.raises(XmlError) as raised:
            encode_document(f"<a><b>x{char}y</b></a>")
        assert repr(f"x{char}y") in str(raised.value)

    @pytest.mark.parametrize(
        ("text", "first"), [("x\x1fy\x01z", "\x1f"), ("x\x01y\udfffz", "\x01")]
    )
    def test_names_the_first_illegal_character(self, text, first):
        with pytest.raises(XmlError) as raised:
            encode_document(f"<a>{text}</a>")
        assert str(raised.value).startswith(f"XML 1.0 cannot carry {first!r} ")

    def test_tab_newline_and_carriage_return_are_legal(self):
        assert encode_document("<a>\t\n\r</a>") == b"<a>\t\n\r</a>"
