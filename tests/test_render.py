import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from click.testing import CliRunner

import cavtune
from cavtune import SchemaError, read_anticrossing_csv, render
from cavtune.cli import main
from cavtune.config import scenario_config
from cavtune.render import render_csv_file, render_curve_svg, render_heatmap_ppm, sniff_csv


class TestCurveSvg:
    def test_deterministic_output(self):
        x = np.linspace(0.0, 10.0, 50)
        series = [("intensity_au", np.exp(-x / 3.0))]
        s1 = render_curve_svg(x, series, "t_ps", "intensity_au", "demo")
        s2 = render_curve_svg(x, series, "t_ps", "intensity_au", "demo")
        assert s1 == s2
        assert s1.startswith('<?xml version="1.0"')
        assert 'version="1.1"' in s1
        assert "t_ps" in s1 and "intensity_au" in s1

    def test_empty_data_rejected(self):
        with pytest.raises(SchemaError):
            render_curve_svg(np.array([]), [("y", np.array([]))], "x", "y")

    def test_series_shorter_than_x_rejected(self):
        with pytest.raises(SchemaError, match="series length does not match the x grid"):
            render_curve_svg(np.arange(4.0), [("y", np.arange(3.0))], "x", "y")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["x", "first", "second"])
    def test_non_finite_value_names_its_series(self, where, value):
        # a NaN y crashed the tick search, and an inf x gave NaN coordinates
        columns = {name: np.arange(4.0) for name in ("x", "first", "second")}
        columns[where][2] = value
        series = [(name, columns[name]) for name in ("first", "second")]
        with pytest.raises(SchemaError, match=f"^{where}: not a finite number: {value}$"):
            render_curve_svg(columns["x"], series, "x", "y")

    @pytest.mark.parametrize("axis, values", [
        ("x", [-1e308, 0.0, 1e308]),
        ("y", [-1e308, 0.0, 1e308]),
        ("y", [1.75e308, 1.76e308, 1.797e308]),  # only the padded top passes the largest float
    ])
    def test_plot_range_past_the_largest_float_names_its_axis(self, axis, values):
        # an infinite span or end made every coordinate nan
        wide, index = np.array(values), np.arange(3.0)
        x, y = (wide, index) if axis == "x" else (index, wide)
        with pytest.raises(SchemaError, match=f"^{axis}: the plot range of .* overflows a float$"):
            render_curve_svg(x, [("first", y)], "x", "y")

    def test_span_near_the_largest_float_is_drawn(self):
        # a tick step times its index passes the largest float
        svg = render_curve_svg(np.array([0.0, 1e308, 1.7e308]), [("y", np.arange(3.0))], "x", "y")
        assert "nan" not in svg and "inf" not in svg
        minidom.parseString(svg)

    def test_span_of_a_few_ulps_is_drawn_flat(self):
        # the tick search stepped v += step, and with step below half an ulp
        # of v it never ended; a fresh interpreter's timeout keeps a hang out
        # of the suite
        code = """
            import numpy as np
            from cavtune.render import render_curve_svg
            flat, index = np.full(3, 1552.0), np.arange(3.0)
            for ulps in (1, 2, 4):
                spread = flat + index * (ulps / 2) * np.spacing(1552.0)
                for axis, x, y in (("x", spread, flat), ("y", index, spread)):
                    flat_x = flat if axis == "x" else index
                    drawn = render_curve_svg(x, [("y", y)], "x", "y")
                    print(axis, ulps, drawn == render_curve_svg(flat_x, [("y", flat)], "x", "y"))
        """
        env = {**os.environ, "PYTHONPATH": str(Path(cavtune.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split("\n")[:-1] == [
            f"{axis} {ulps} True" for ulps in (1, 2, 4) for axis in ("x", "y")
        ]

    def test_text_is_escaped(self):
        name, title = "a<b&c", "<x> & 'y'"
        svg = render_curve_svg(np.arange(3.0), [(name, np.arange(3.0))], "t<ps>", name, title)
        texts = {t.firstChild.data for t in minidom.parseString(svg).getElementsByTagName("text")}
        assert {name, title, "t<ps>"} <= texts


class TestHeatmapPpm:
    def test_p6_header_and_size(self):
        z = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        ppm = render_heatmap_ppm(z)
        assert ppm.startswith(b"P6\n4 3\n255\n")
        assert len(ppm) == len(b"P6\n4 3\n255\n") + 3 * 4 * 3

    def test_monotone_colormap(self):
        z = np.linspace(0.0, 1.0, 256).reshape(1, 256)
        ppm = render_heatmap_ppm(z, colormap="heat")
        body = np.frombuffer(ppm.split(b"255\n", 1)[1], dtype=np.uint8).reshape(256, 3)
        luminance = body.astype(float).sum(axis=1)
        assert np.all(np.diff(luminance) >= 0.0)

    def test_all_zero_rejected(self):
        with pytest.raises(SchemaError):
            render_heatmap_ppm(np.zeros((4, 4)))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(SchemaError, match="heatmap needs a non-empty 2D intensity array"):
            render_heatmap_ppm(np.ones(4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_rejected(self, value):
        # such a cell was a black pixel, cast with a RuntimeWarning
        z = np.ones((3, 4))
        z[1, 2] = value
        with pytest.raises(SchemaError, match=f"^heatmap intensity: not a finite number: {value}$"):
            render_heatmap_ppm(z)

    def test_log_scale_differs(self):
        z = np.array([[1e-6, 1e-3, 1.0]])
        lin = render_heatmap_ppm(z)
        log = render_heatmap_ppm(z, log_scale=True)
        assert lin != log

    @staticmethod
    def _stacked_colormap(values, colormap):
        # oracle: three float planes, stacked, then scaled and cast at once
        t = np.clip(values, 0.0, 1.0)
        if colormap == "gray":
            byte = np.rint(t * 255).astype(np.uint8)
            return np.stack([byte, byte, byte], axis=-1)
        r = np.clip(3.0 * t, 0.0, 1.0)
        g = np.clip(3.0 * t - 1.0, 0.0, 1.0)
        b = np.clip(3.0 * t - 2.0, 0.0, 1.0)
        return np.rint(np.stack([r, g, b], axis=-1) * 255).astype(np.uint8)

    @pytest.mark.parametrize("log_scale", [False, True], ids=["linear", "log"])
    @pytest.mark.parametrize("colormap", ["heat", "gray"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_stacked_colormap(self, monkeypatch, seed, colormap, log_scale):
        rng = np.random.default_rng(seed)
        z = rng.lognormal(sigma=3.0, size=(37, 53))
        z[rng.random(z.shape) < 0.1] = 0.0
        z[rng.random(z.shape) < 0.05] *= -1.0
        z.flat[:6] = z.max() * np.array([1 / 3, 2 / 3, 0.5 / 255, 1.5 / 765, 1.0, 1e-7])
        got = render_heatmap_ppm(z, colormap, log_scale)
        monkeypatch.setattr(render, "_colormap", self._stacked_colormap)
        assert got == render_heatmap_ppm(z, colormap, log_scale)


class TestRenderCsv:
    def test_curve_csv_to_svg(self, tmp_path):
        csv_path = tmp_path / "curve.csv"
        t = np.linspace(0.0, 100.0, 40)
        lines = ["t_ps,intensity_au"] + [f"{tv:.17g},{np.exp(-tv / 20.0):.17g}" for tv in t]
        csv_path.write_text("\n".join(lines) + "\n")
        out1 = render_csv_file(csv_path, tmp_path / "a.svg")
        out2 = render_csv_file(csv_path, tmp_path / "b.svg")
        assert out1.read_bytes() == out2.read_bytes()

    def test_map_csv_to_ppm(self, tmp_path):
        csv_path = tmp_path / "map.csv"
        rows = ["t_ps,lambda_nm,intensity_au"]
        for t in (0.0, 1.0, 2.0):
            for lam in (1551.0, 1552.0, 1553.0):
                rows.append(f"{t},{lam},{t + lam - 1550.0}")
        csv_path.write_text("\n".join(rows) + "\n")
        out = render_csv_file(csv_path, tmp_path / "m.ppm")
        assert out.read_bytes().startswith(b"P6\n3 3\n255\n")

    @pytest.mark.parametrize("layout", ["duplicate and missing cell", "wavelength-major"])
    def test_scrambled_map_rejected(self, tmp_path, layout):
        # both hold 3 x 3 rows over 3 times and 3 wavelengths, as a full grid does
        cells = [(t, lam) for t in (0.0, 1.0, 2.0) for lam in (1551.0, 1552.0, 1553.0)]
        if layout == "wavelength-major":
            cells = [(t, lam) for lam in (1551.0, 1552.0, 1553.0) for t in (0.0, 1.0, 2.0)]
        else:
            cells[4] = cells[3]  # (1, 1551) twice, (1, 1552) missing
        csv_path = tmp_path / "map.csv"
        csv_path.write_text("t_ps,lambda_nm,intensity_au\n"
                            + "".join(f"{t},{lam},{t + lam - 1550.0}\n" for t, lam in cells))
        with pytest.raises(SchemaError, match="not the full .* grid in t-major order"):
            render_csv_file(csv_path, tmp_path / "m.ppm")
        assert not (tmp_path / "m.ppm").exists()

    def test_header_only_csv_is_error(self, tmp_path):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("t_ps,intensity_au\n")
        with pytest.raises(SchemaError, match="no data rows"):
            render_csv_file(csv_path, tmp_path / "x.svg")

    @pytest.mark.parametrize("cell, message", [("oops", "not a finite number: 'oops'"),
                                               ("", "empty cell")], ids=["text", "empty"])
    def test_malformed_cell_reports_line(self, tmp_path, cell, message):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(f"t_ps,intensity_au\n0,1\n5,{cell}\n")
        with pytest.raises(SchemaError, match=f"line 3, column 'intensity_au': {message}"):
            sniff_csv(csv_path)

    def test_short_row_exits_2(self, tmp_path):
        csv_path = tmp_path / "short.csv"
        csv_path.write_text("t_ps,lambda_nm,intensity_au\n0,1551,1\n0,1552\n")
        res = CliRunner().invoke(main, ["render", str(csv_path), "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert f"error: {csv_path}: line 3: expected 3 cells, got 2\n" in res.output

    def test_unknown_layout_rejected(self, tmp_path):
        csv_path = tmp_path / "odd.csv"
        csv_path.write_text("foo,bar\n1,2\n")
        with pytest.raises(SchemaError, match="unrecognized"):
            sniff_csv(csv_path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "layout, text, line, column",
        [
            ("curve", "t_ps,intensity_au\n0,1\n\n4,{cell}\n8,1\n", 4, "intensity_au"),
            ("map", "t_ps,lambda_nm,intensity_au\n0,1551,1\n0,1552,{cell}\n"
                    "1,1551,1\n1,1552,1\n", 3, "intensity_au"),
            ("map grid", "t_ps,lambda_nm,intensity_au\n0,1551,1\n0,{cell},1\n", 3, "lambda_nm"),
        ],
    )
    def test_non_finite_cell_exits_2(self, tmp_path, layout, text, line, column, cell):
        # a NaN passes every comparison, so render would plot or colour it
        # silently; the CLI must stop with the cell's line and column instead
        csv_path = tmp_path / "in.csv"
        csv_path.write_text(text.format(cell=cell))
        res = CliRunner().invoke(main, ["render", str(csv_path), "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert f"line {line}, column '{column}': not a finite number" in res.output
        assert not (tmp_path / "out").exists()


class TestOneCsvParser:
    """``sniff_csv`` and ``read_anticrossing_csv`` parse through one reader."""

    def test_both_readers_name_the_same_cell(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        csv_path.write_text("control,lambda1,lambda2\n0,1551,1553\n\n1,1551,inf\n"
                            "2,1551,1553\n3,1551,1553\n")
        messages = []
        for reader in (sniff_csv, read_anticrossing_csv):
            with pytest.raises(SchemaError) as raised:
                reader(csv_path)
            messages.append(str(raised.value))
        assert messages == 2 * [f"{csv_path}: line 4, column 'lambda2': not a finite number: 'inf'"]

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # a spreadsheet may save its table with a BOM before the first header
        text = "control_nm,lambda1,lambda2\n" + "".join(f"{c},1551,1553\n" for c in range(5))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        (kind, header, data), again = sniff_csv(plain), sniff_csv(marked)
        assert again[:2] == (kind, header) and np.array_equal(again[2], data)
        fitted, refitted = read_anticrossing_csv(plain), read_anticrossing_csv(marked)
        assert refitted.control_kind == fitted.control_kind == "detuning_nm"
        for name in ("control", "lambda1", "lambda2"):
            assert np.array_equal(getattr(refitted, name), getattr(fitted, name))


def test_curve_past_the_largest_float_exits_2(tmp_path):
    csv_path = tmp_path / "wide.csv"
    csv_path.write_text("t_ps,y\n0,-1e308\n1,0\n2,1e308\n")
    res = CliRunner().invoke(main, ["render", str(csv_path), "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert "y: the plot range of -1e+308 to 1e+308 overflows a float" in res.output
    assert not (tmp_path / "out").exists()


def svg_texts(path) -> set:
    """The text of each ``<text>`` element of the SVG file at ``path``; it must parse."""
    return {t.firstChild.data for t in minidom.parse(str(path)).getElementsByTagName("text")}


class TestCliTextIsEscaped:
    def test_render_of_a_header_with_markup(self, tmp_path):
        csv_path = tmp_path / "curve.csv"
        csv_path.write_text("t_ps,a<b&c\n0,1\n1,2\n2,1\n")
        res = CliRunner().invoke(main, ["render", str(csv_path), "--out", str(tmp_path / "c.svg")])
        assert res.exit_code == 0, res.output
        assert "a<b&c" in svg_texts(tmp_path / "c.svg")

    def test_scenario_with_markup_titles_the_plots(self, tmp_path):
        raw = scenario_config("fig2-sweep")
        raw["scenario"] = "<sweep> & co"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        res = CliRunner().invoke(
            main, ["static-sweep", "--config", str(cfg), "--out", str(out), "--render"]
        )
        assert res.exit_code == 0, res.output
        assert "<sweep> & co: coupled-mode Q" in svg_texts(out / "sweep_q.svg")
        assert "<sweep> & co: coupled-mode wavelengths" in svg_texts(out / "sweep_wavelengths.svg")
