import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from imbalkit.svg import bar_chart_svg, heatmap_svg, roc_svg

SVG = "{http://www.w3.org/2000/svg}"
NASTY = 'a<b&c>"d'
NASTY_ESCAPED = "a&lt;b&amp;c&gt;&quot;d"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def elements(text: str, tag: str) -> list:
    return ET.fromstring(text).findall(f"{SVG}{tag}")


def bar_inputs():
    return ["age", "income<10k", "a&b", "employed"], [0.25, -0.125, 0.0625, 0.0], 'gbt: "mean" |Shapley|'


def heatmap_inputs():
    V = np.array([[1.0, 0.2, 0.5, -0.1],
                  [0.2, 1.0, 0.33, 0.0],
                  [0.5, 0.33, 1.0, 1.7],
                  [-0.1, 0.0, 1.7, 0.999]])
    return V, ["age", "sex", "marital<status>", "work & pay"], "Cramer's V association"


def roc_inputs():
    return {
        "logistic": (np.array([0.0, 0.1, 0.4, 1.0]), np.array([0.0, 0.5, 0.8, 1.0]), 0.78125),
        "gbt": (np.array([0.0, 0.05, 0.2, 1.0]), np.array([0.0, 0.7, 0.95, 1.0]), 0.9),
        "stack<&>": (np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.5),
    }


class TestPins:
    """The bytes of each chart on fixed inputs, recorded before the element
    writer replaced the per-element f-strings."""

    def test_bar_chart(self):
        labels, values, title = bar_inputs()
        assert sha(bar_chart_svg(labels, values, title)) == (
            "778c9a271aa65748e53af077be944be76ae73f849ec91d916840305141a56975")

    def test_bar_chart_width(self):
        labels, values, title = bar_inputs()
        assert sha(bar_chart_svg(labels, values, title, width=400)) == (
            "43305be5350ada4fdf565f63524b0587329c0138bf59f2a975c9b1e0bcdf4843")

    def test_heatmap(self):
        assert sha(heatmap_svg(*heatmap_inputs())) == (
            "d4b98a16704ed2ab05b363d085ee9d46093cf0bad3f0ce3cfa96f6834a9ca7c9")

    def test_roc(self):
        assert sha(roc_svg(roc_inputs())) == (
            "09dffc6241389a2a8ccf63bda054b95331819c6e7c2735def0cfaf5b0e3aa4fd")

    def test_roc_size(self):
        assert sha(roc_svg(roc_inputs(), width=600, height=400)) == (
            "eba05f261afcd158dc2117aa6e3e3f2b2e8bf419e720d86775500121e8a26da6")


class TestEscaping:
    def test_bar_chart_label_and_title(self):
        text = bar_chart_svg([NASTY], [0.5], NASTY)
        assert text.count(NASTY_ESCAPED) == 2
        assert [e.text for e in elements(text, "text")][:2] == [NASTY, NASTY]

    def test_heatmap_labels_and_title(self):
        text = heatmap_svg([[1.0]], [NASTY], NASTY)
        assert text.count(NASTY_ESCAPED) == 3
        assert [e.text for e in elements(text, "text")][:3] == [NASTY] * 3

    def test_roc_model_name(self):
        text = roc_svg({NASTY: ([0.0, 1.0], [0.0, 1.0], 0.5)})
        assert text.count(NASTY_ESCAPED) == 1
        assert elements(text, "text")[-1].text == f"{NASTY} (AUC 0.5000)"


class TestEmpty:
    def test_no_bars(self):
        text = bar_chart_svg([], [], "empty")
        assert [e.text for e in elements(text, "text")] == ["empty"]
        assert len(elements(text, "rect")) == 1  # the background
        assert ET.fromstring(text).get("height") == "50"

    @pytest.mark.parametrize("matrix", [np.zeros((0, 0)), []])
    def test_empty_heatmap(self, matrix):
        text = heatmap_svg(matrix, [])
        assert [e.text for e in elements(text, "text")] == [None]  # the empty title
        assert len(elements(text, "rect")) == 1
        root = ET.fromstring(text)
        assert (root.get("width"), root.get("height")) == ("210", "200")

    def test_no_curves(self):
        text = roc_svg({})
        assert elements(text, "polyline") == []
        assert [e.text for e in elements(text, "text")] == ["false positive rate", "true positive rate"]


class TestShapes:
    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (3,)], ids=["tall", "wide", "1-d"])
    def test_heatmap_needs_a_square_matrix_with_one_label_per_row(self, shape):
        with pytest.raises(ValueError, match="heatmap needs a"):
            heatmap_svg(np.zeros(shape), ["a", "b", "c"][:shape[0]])

    @pytest.mark.parametrize("values", [[0.5], [0.5, 0.1, 0.2, 0.3], [[0.5, 0.1, 0.2]]],
                             ids=["short", "long", "2-d"])
    def test_bar_chart_needs_one_value_per_label(self, values):
        with pytest.raises(ValueError, match="one value per label"):
            bar_chart_svg(["a", "b", "c"], values)


def test_curve_colours_cycle_past_ten():
    curves = {f"m{k:02d}": ([0.0, 1.0], [0.0, 1.0], 0.5) for k in range(12)}
    strokes = [e.get("stroke") for e in elements(roc_svg(curves), "polyline")]
    assert len(set(strokes[:10])) == 10
    assert strokes[10:] == strokes[:2]


def test_every_chart_ends_its_document_once():
    for text in (bar_chart_svg(*bar_inputs()), heatmap_svg(*heatmap_inputs()), roc_svg(roc_inputs())):
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
        assert text.endswith("</svg>\n") and text.count("</svg>") == 1
