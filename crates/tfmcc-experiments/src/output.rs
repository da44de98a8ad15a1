//! Result containers and CSV/JSON output for the `figs` binary.

use tfmcc_runner::Json;

/// A named data series (one curve of a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label, used as the CSV column header.
    pub name: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.into(),
            points,
        }
    }

    /// The y value at the largest x.
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|&(_, y)| y)
    }

    /// Mean of the y values.
    pub fn mean_y(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, y)| y).sum::<f64>() / self.points.len() as f64
    }
}

/// One reproduced figure: a set of curves plus human-readable summary lines
/// describing the shape criteria checked against the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Identifier, e.g. "fig09".
    pub id: String,
    /// Title of the figure as in the paper.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
    /// Summary lines (shape checks, measured headline numbers).
    pub summary: Vec<String>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            summary: Vec::new(),
        }
    }

    /// Adds a curve.
    pub fn push_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Adds a summary line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.summary.push(line.into());
    }

    /// Finds a series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Renders the figure as CSV: a comment header, one `x` column per series
    /// block (series may have different x grids), followed by the summary as
    /// `#` comments.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}: {}\n", self.id, self.title));
        out.push_str(&format!("# x: {}   y: {}\n", self.x_label, self.y_label));
        for s in &self.series {
            out.push_str(&format!("# series: {}\n", s.name));
            out.push_str("x,y\n");
            for &(x, y) in &s.points {
                out.push_str(&format!("{x},{y}\n"));
            }
        }
        for line in &self.summary {
            out.push_str(&format!("# {line}\n"));
        }
        out
    }

    /// Renders the figure as a deterministic JSON document (what `--out`
    /// writes).  Rendering is byte-identical for identical data, so sweep
    /// results can be diffed across thread counts and runs.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".into(), Json::str(&self.id)),
            ("title".into(), Json::str(&self.title)),
            ("x_label".into(), Json::str(&self.x_label)),
            ("y_label".into(), Json::str(&self.y_label)),
            (
                "series".into(),
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(&s.name)),
                                (
                                    "points".into(),
                                    Json::Arr(
                                        s.points
                                            .iter()
                                            .map(|&(x, y)| {
                                                Json::Arr(vec![Json::num(x), Json::num(y)])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "summary".into(),
                Json::Arr(self.summary.iter().map(Json::str).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_contains_all_series_and_summary() {
        let mut fig = Figure::new("figX", "Test", "time", "rate");
        fig.push_series(Series::new("a", vec![(0.0, 1.0), (1.0, 2.0)]));
        fig.push_series(Series::new("b", vec![(0.0, 3.0)]));
        fig.note("shape ok");
        let csv = fig.to_csv();
        assert!(csv.contains("# series: a"));
        assert!(csv.contains("# series: b"));
        assert!(csv.contains("0,1"));
        assert!(csv.contains("# shape ok"));
        assert_eq!(fig.series("a").unwrap().last_y(), Some(2.0));
        assert_eq!(fig.series("b").unwrap().mean_y(), 3.0);
    }

    #[test]
    fn json_rendering_is_deterministic_and_complete() {
        let mut fig = Figure::new("figX", "Test", "time", "rate");
        fig.push_series(Series::new("a", vec![(0.0, 1.0), (1.0, 2.5)]));
        fig.note("shape ok");
        let json = fig.to_json().render();
        assert_eq!(
            json,
            r#"{"id":"figX","title":"Test","x_label":"time","y_label":"rate","series":[{"name":"a","points":[[0,1],[1,2.5]]}],"summary":["shape ok"]}"#
        );
        assert_eq!(json, fig.to_json().render());
    }
}
