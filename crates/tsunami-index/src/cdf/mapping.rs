//! Functional mappings between monotonically correlated dimensions (§5.2.1).
//!
//! For a tightly monotonically correlated pair of dimensions, a filter range
//! over the *mapped* dimension `Y` can be rewritten as a range over the
//! *target* dimension `X` using a linear regression `X ≈ LR(Y)` with lower
//! and upper error bounds. The mapping guarantees: any point whose `Y` value
//! lies in `[y_lo, y_hi]` has an `X` value inside the mapped range. A
//! functional mapping is encoded in four floating point numbers (slope,
//! intercept, and the two error bounds) and has negligible storage overhead.

use tsunami_core::Value;

/// A least-squares line `y = slope * x + intercept` — the regression a
/// mapping is built on (§5.2.1: "we implement the mapping function as a
/// simple linear regression").
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinearModel {
    slope: f64,
    intercept: f64,
}

impl LinearModel {
    /// A constant model (`y = c`), used for degenerate fits.
    fn constant(c: f64) -> Self {
        Self {
            slope: 0.0,
            intercept: c,
        }
    }

    /// Fits a least-squares line to `(x, y)` pairs.
    ///
    /// Degenerate inputs (empty, single point, or zero x-variance) fall back
    /// to a constant model at the mean of `y`.
    fn fit(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len());
        let n = xs.len();
        if n == 0 {
            return Self::constant(0.0);
        }
        let mean_x = xs.iter().sum::<f64>() / n as f64;
        let mean_y = ys.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Self::constant(mean_y);
        }
        let mut cov = 0.0;
        let mut var = 0.0;
        for i in 0..n {
            let dx = xs[i] - mean_x;
            cov += dx * (ys[i] - mean_y);
            var += dx * dx;
        }
        if var == 0.0 {
            return Self::constant(mean_y);
        }
        let slope = cov / var;
        Self {
            slope,
            intercept: mean_y - slope * mean_x,
        }
    }

    /// Predicted `y` for an `x`.
    #[inline]
    fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// A linear mapping from a mapped dimension `Y` to a target dimension `X`
/// with conservative error bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FunctionalMapping {
    model: LinearModel,
    /// Maximum amount by which the model over-predicts X (true X can be up to
    /// `err_lo` below the prediction).
    err_lo: f64,
    /// Maximum amount by which the model under-predicts X (true X can be up
    /// to `err_hi` above the prediction).
    err_hi: f64,
}

impl FunctionalMapping {
    /// Fits a mapping that predicts `target` (X) from `mapped` (Y).
    ///
    /// Returns `None` if the inputs are empty or have mismatched lengths.
    pub fn fit(mapped_y: &[Value], target_x: &[Value]) -> Option<Self> {
        if mapped_y.is_empty() || mapped_y.len() != target_x.len() {
            return None;
        }
        let ys: Vec<f64> = mapped_y.iter().map(|&v| v as f64).collect();
        let xs: Vec<f64> = target_x.iter().map(|&v| v as f64).collect();
        let model = LinearModel::fit(&ys, &xs);
        let mut err_lo = 0.0f64;
        let mut err_hi = 0.0f64;
        for i in 0..ys.len() {
            let pred = model.predict(ys[i]);
            let diff = xs[i] - pred;
            if diff < 0.0 {
                err_lo = err_lo.max(-diff);
            } else {
                err_hi = err_hi.max(diff);
            }
        }
        Some(Self {
            model,
            err_lo,
            err_hi,
        })
    }

    /// The total width of the error band (`err_lo + err_hi`).
    pub fn error_span(&self) -> f64 {
        self.err_lo + self.err_hi
    }

    /// Maps a filter range `[y_lo, y_hi]` over the mapped dimension into a
    /// conservative range `[x_lo, x_hi]` over the target dimension.
    ///
    /// The result is widened by the error bounds so the containment guarantee
    /// holds for every training point; it is clamped to the `u64` domain.
    pub fn map_range(&self, y_lo: Value, y_hi: Value) -> (Value, Value) {
        let (y_lo, y_hi) = if y_lo <= y_hi {
            (y_lo, y_hi)
        } else {
            (y_hi, y_lo)
        };
        let p_lo = self.model.predict(y_lo as f64);
        let p_hi = self.model.predict(y_hi as f64);
        // A negative slope flips the ends of the interval.
        let (mut lo, mut hi) = if p_lo <= p_hi {
            (p_lo, p_hi)
        } else {
            (p_hi, p_lo)
        };
        lo -= self.err_lo;
        hi += self.err_hi;
        let x_lo = if lo <= 0.0 { 0 } else { lo.floor() as Value };
        let x_hi = if hi >= u64::MAX as f64 {
            u64::MAX
        } else if hi < 0.0 {
            0
        } else {
            hi.ceil() as Value
        };
        (x_lo, x_hi.max(x_lo))
    }

    /// Size of the mapping in bytes: four floats (§5.2.1).
    pub fn size_bytes(&self) -> usize {
        4 * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn correlated_data(noise: u64) -> (Vec<Value>, Vec<Value>) {
        // X = 3*Y + 100 ± noise, deterministic "noise" pattern.
        let ys: Vec<Value> = (0..2000).collect();
        let xs: Vec<Value> = ys
            .iter()
            .map(|&y| 3 * y + 100 + (y * 7919 % (2 * noise + 1)))
            .collect();
        (ys, xs)
    }

    #[test]
    fn linear_fit_recovers_a_line() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x + 7.0).collect();
        let m = LinearModel::fit(&xs, &ys);
        assert!((m.slope - 3.0).abs() < 1e-9);
        assert!((m.intercept - 7.0).abs() < 1e-6);

        let noisy: Vec<f64> = (xs.iter().enumerate())
            .map(|(i, &x)| 2.0 * x + 5.0 + if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let m = LinearModel::fit(&xs, &noisy);
        assert!((m.slope - 2.0).abs() < 0.05);
        assert!((m.intercept - 5.0).abs() < 2.0);
    }

    #[test]
    fn degenerate_linear_fits_fall_back_to_constant() {
        assert_eq!(LinearModel::fit(&[], &[]), LinearModel::constant(0.0));
        assert_eq!(
            LinearModel::fit(&[5.0], &[42.0]),
            LinearModel::constant(42.0)
        );
        // Zero variance in x.
        let flat = LinearModel::fit(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]);
        assert_eq!(flat.slope, 0.0);
        assert!((flat.intercept - 2.0).abs() < 1e-9);
    }

    #[test]
    fn containment_guarantee_holds_for_all_training_points() {
        let (ys, xs) = correlated_data(25);
        let fm = FunctionalMapping::fit(&ys, &xs).unwrap();
        // For several query ranges over Y, every training point with Y in the
        // range must have X in the mapped range.
        for &(qlo, qhi) in &[(0u64, 100u64), (500, 600), (1500, 1999), (42, 42)] {
            let (xlo, xhi) = fm.map_range(qlo, qhi);
            for i in 0..ys.len() {
                if ys[i] >= qlo && ys[i] <= qhi {
                    assert!(
                        xs[i] >= xlo && xs[i] <= xhi,
                        "point (y={}, x={}) escaped mapped range [{xlo}, {xhi}] for query [{qlo}, {qhi}]",
                        ys[i],
                        xs[i]
                    );
                }
            }
        }
    }

    #[test]
    fn tight_correlation_has_small_error_span() {
        let (ys, xs) = correlated_data(5);
        let fm = FunctionalMapping::fit(&ys, &xs).unwrap();
        // domain of X is about [100, 6100]; error should be far below 10%.
        assert!(fm.error_span() < 50.0);
    }

    #[test]
    fn loose_correlation_is_not_tight() {
        let ys: Vec<Value> = (0..1000).collect();
        // X only loosely follows Y: huge deterministic deviations.
        let xs: Vec<Value> = ys.iter().map(|&y| y + (y * 7919 % 2000) * 3).collect();
        let fm = FunctionalMapping::fit(&ys, &xs).unwrap();
        assert!(fm.error_span() > 0.1 * 7000.0);
    }

    #[test]
    fn negative_slope_correlations_are_supported() {
        let ys: Vec<Value> = (0..1000).collect();
        let xs: Vec<Value> = ys.iter().map(|&y| 10_000 - 5 * y).collect();
        let fm = FunctionalMapping::fit(&ys, &xs).unwrap();
        let (xlo, xhi) = fm.map_range(100, 200);
        for &x in &xs[100..=200] {
            assert!(x >= xlo && x <= xhi);
        }
        assert!(xlo < xhi);
    }

    #[test]
    fn reversed_query_bounds_are_normalized() {
        let (ys, xs) = correlated_data(10);
        let fm = FunctionalMapping::fit(&ys, &xs).unwrap();
        assert_eq!(fm.map_range(100, 50), fm.map_range(50, 100));
    }

    #[test]
    fn degenerate_inputs_return_none_or_work() {
        assert!(FunctionalMapping::fit(&[], &[]).is_none());
        assert!(FunctionalMapping::fit(&[1, 2], &[1]).is_none());
        let fm = FunctionalMapping::fit(&[5], &[50]).unwrap();
        let (lo, hi) = fm.map_range(5, 5);
        assert!(lo <= 50 && hi >= 50);
        assert_eq!(fm.size_bytes(), 32);
    }
}
