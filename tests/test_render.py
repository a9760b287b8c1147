import numpy as np
import pytest
from click.testing import CliRunner

from cavtune import SchemaError
from cavtune.cli import main
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["x", "first", "second"])
    def test_non_finite_value_names_its_series(self, where, value):
        # a NaN y crashed the tick search, and an inf x gave NaN coordinates
        columns = {name: np.arange(4.0) for name in ("x", "first", "second")}
        columns[where][2] = value
        series = [(name, columns[name]) for name in ("first", "second")]
        with pytest.raises(SchemaError, match=f"^{where}: not a finite number: {value}$"):
            render_curve_svg(columns["x"], series, "x", "y")


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

    def test_malformed_cell_reports_line(self, tmp_path):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("t_ps,intensity_au\n0,1\n5,oops\n")
        with pytest.raises(SchemaError, match="line 3"):
            sniff_csv(csv_path)

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
