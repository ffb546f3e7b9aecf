//! Named data series and figures with JSON export.
//!
//! Every reproduction binary materialises its result as a [`Figure`]
//! (a set of named `(x, y[, err])` series), prints it as a table, and
//! can write it to disk as JSON so EXPERIMENTS.md numbers are traceable
//! to artifacts.

use serde::{Deserialize, Serialize};

/// One data point: x, y, optional error bar (±).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
    /// Optional symmetric error (standard deviation).
    pub err: Option<f64>,
}

/// A named series of points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    /// Series label (e.g. "PEBS/astar" or "type A").
    pub name: String,
    /// The points, in x order.
    pub points: Vec<Point>,
}

impl Series {
    /// New empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) -> &mut Self {
        self.points.push(Point { x, y, err: None });
        self
    }

    /// Append a point with an error bar.
    pub fn push_err(&mut self, x: f64, y: f64, err: f64) -> &mut Self {
        self.points.push(Point {
            x,
            y,
            err: Some(err),
        });
        self
    }

    /// Y values in x order.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.y).collect()
    }
}

/// A figure: several series plus identifying metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure {
    /// Figure id, e.g. "fig9".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Axis labels.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Create an empty figure.
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
        }
    }

    /// Add a series.
    pub fn add(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Find a series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Export as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("figure serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Figure {
        let mut f = Figure::new("fig_test", "A test", "reset", "us");
        let mut s = Series::new("pebs");
        s.push(8000.0, 1.25).push_err(16000.0, 2.5, 0.1);
        f.add(s);
        f
    }

    #[test]
    fn series_accessors() {
        let f = fig();
        let s = f.series("pebs").unwrap();
        assert_eq!(s.ys(), vec![1.25, 2.5]);
        assert!(f.series("nope").is_none());
    }

    #[test]
    fn json_round_trip() {
        let f = fig();
        let parsed: Figure = serde_json::from_str(&f.to_json()).unwrap();
        assert_eq!(parsed.id, "fig_test");
        assert_eq!(parsed.series.len(), 1);
        assert_eq!(parsed.series[0].points[1].err, Some(0.1));
    }
}
