//! False-positive-rate theory for vantage points (paper Sec 6.2.1).
//!
//! The probability that a graph survives every vantage-point band test yet
//! lies outside the true θ-neighborhood is bounded by Eq. 11 when pairwise
//! distances are Gaussian. The bound is validated empirically in the
//! Fig 5(f)–(h) experiment.

/// Error function, Abramowitz & Stegun 7.1.26 (|error| ≤ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal CDF Φ(x).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Eq. 11: FPR upper bound when pairwise distances are `N(μ, σ²)`.
///
/// `FPR ≤ (1 − Φ((θ−μ)/σ)) · (2Φ(θ/σ) − 1)^|V|`
pub fn fpr_normal_bound(theta: f64, mu: f64, sigma: f64, num_vps: usize) -> f64 {
    assert!(sigma > 0.0, "sigma must be positive");
    let reject = 1.0 - normal_cdf((theta - mu) / sigma);
    let band = (2.0 * normal_cdf(theta / sigma) - 1.0).clamp(0.0, 1.0);
    reject * band.powi(num_vps as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from tables.
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
        assert!(erf(6.0) > 0.999999);
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn normal_bound_decreases_with_vps() {
        let b1 = fpr_normal_bound(10.0, 30.0, 8.0, 1);
        let b10 = fpr_normal_bound(10.0, 30.0, 8.0, 10);
        let b100 = fpr_normal_bound(10.0, 30.0, 8.0, 100);
        assert!(b1 > b10 && b10 > b100);
        assert!(b100 >= 0.0);
    }

    #[test]
    fn normal_bound_is_a_probability() {
        for &theta in &[1.0, 5.0, 20.0, 50.0] {
            for &v in &[1usize, 5, 50] {
                let b = fpr_normal_bound(theta, 25.0, 6.0, v);
                assert!((0.0..=1.0).contains(&b), "theta={theta} v={v} b={b}");
            }
        }
    }
}
