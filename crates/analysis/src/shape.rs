//! Shape checks: the reproduction promises the paper's *shape* (who
//! wins, by roughly what factor, what trends hold), not its absolute
//! numbers. These helpers turn those promises into assertions shared by
//! the integration tests and the EXPERIMENTS harness.

use std::fmt;

/// A violated shape expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeError(pub String);

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shape violation: {}", self.0)
    }
}

impl std::error::Error for ShapeError {}

/// Check that `values` is strictly decreasing.
pub fn assert_decreasing(label: &str, values: &[f64]) -> Result<(), ShapeError> {
    for (i, w) in values.windows(2).enumerate() {
        if w[0] <= w[1] {
            return Err(ShapeError(format!(
                "{label}: expected decreasing, but v[{i}]={} <= v[{}]={}",
                w[0],
                i + 1,
                w[1]
            )));
        }
    }
    Ok(())
}

/// Check that `a / b` lies within `[lo, hi]` — "wins by roughly this
/// factor".
pub fn ratio_in(label: &str, a: f64, b: f64, lo: f64, hi: f64) -> Result<(), ShapeError> {
    if b == 0.0 {
        return Err(ShapeError(format!("{label}: division by zero")));
    }
    let r = a / b;
    if r < lo || r > hi {
        return Err(ShapeError(format!(
            "{label}: ratio {r:.3} outside [{lo}, {hi}] (a={a}, b={b})"
        )));
    }
    Ok(())
}

/// Check that a series flattens: the relative drop over the last two
/// points is below `tolerance` (used for the perf 10 µs floor in
/// Fig. 4).
pub fn assert_flattens(label: &str, values: &[f64], tolerance: f64) -> Result<(), ShapeError> {
    if values.len() < 2 {
        return Err(ShapeError(format!("{label}: too few points")));
    }
    let last = values[values.len() - 1];
    let prev = values[values.len() - 2];
    let change = (prev - last).abs() / prev.max(1e-30);
    if change > tolerance {
        return Err(ShapeError(format!(
            "{label}: still changing by {:.1}% at the tail",
            change * 100.0
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decreasing_ok_and_err() {
        assert!(assert_decreasing("d", &[3.0, 2.0, 1.0]).is_ok());
        let err = assert_decreasing("d", &[3.0, 3.0]).unwrap_err();
        assert!(err.to_string().contains("expected decreasing"));
    }

    #[test]
    fn ratios() {
        assert!(ratio_in("r", 12.0, 6.0, 1.5, 3.0).is_ok());
        assert!(ratio_in("r", 12.0, 6.0, 2.5, 3.0).is_err());
        assert!(ratio_in("r", 1.0, 0.0, 0.0, 1.0).is_err());
    }

    #[test]
    fn flattening() {
        assert!(assert_flattens("f", &[30.0, 12.0, 10.2, 10.1], 0.05).is_ok());
        assert!(assert_flattens("f", &[30.0, 20.0, 10.0], 0.05).is_err());
        assert!(assert_flattens("f", &[1.0], 0.05).is_err());
    }
}
