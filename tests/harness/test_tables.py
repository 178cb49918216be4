"""ASCII table rendering."""

from repro.harness import render_table


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["name", "x"], [["long-name", 1], ["s", 22]])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1  # all rows equal width
        assert lines[0].startswith("| name")

    def test_title(self):
        text = render_table(["a"], [["b"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_separator_row(self):
        text = render_table(["col"], [["val"]])
        assert text.splitlines()[1].startswith("|-")

    def test_non_string_cells(self):
        text = render_table(["n"], [[3.14], [None]])
        assert "3.14" in text and "None" in text

