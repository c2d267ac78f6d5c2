//! Correctness checks against references computed once during set-up,
//! independently of the library's kernels.

use crate::stats::Rng;
use ftgemm::{FtReport, MatRef, Matrix};

/// Operations attempted and failed, with the first failure kept for the
/// log.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// `C = A*B` by a plain column-axpy loop: no packing, no blocking, no
/// library kernel.
pub fn reference_gemm(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    let (m, n) = (a.nrows(), b.ncols());
    let (ar, br) = (a.as_ref(), b.as_ref());
    let mut c = vec![0.0; m * n];
    for j in 0..n {
        let cj = &mut c[j * m..(j + 1) * m];
        let bj = br.col(j);
        for (p, &s) in bj.iter().enumerate() {
            for (ci, &ai) in cj.iter_mut().zip(ar.col(p)) {
                *ci += ai * s;
            }
        }
    }
    Matrix::from_col_major(m, n, &c).expect("reference buffer matches its shape")
}

/// Elementwise comparison with a served result.
pub fn compare(c: &Matrix<f64>, expected: &Matrix<f64>) -> Result<(), String> {
    if c.nrows() != expected.nrows() || c.ncols() != expected.ncols() {
        return Err(format!(
            "result is {}x{}, expected {}x{}",
            c.nrows(),
            c.ncols(),
            expected.nrows(),
            expected.ncols()
        ));
    }
    let scale = expected.max_abs().max(1.0);
    let worst = c.max_abs_diff(expected);
    if worst.is_finite() && worst <= 1e-10 * scale {
        Ok(())
    } else {
        Err(format!("result differs from the reference by {worst:e}"))
    }
}

/// Freivalds' check: `C x` and `yᵀ C` against `A (B x)` and `(yᵀ A) B`,
/// computed once in set-up in O(mk + kn). Any single wrong element above
/// rounding shows in one of the two projections, since `x`, `y` > 0.
pub struct Projection {
    x: Vec<f64>,
    y: Vec<f64>,
    abx: Vec<f64>,
    ytab: Vec<f64>,
    /// Rounding bounds per row / column: `|A|(|B||x|)` and `(|y|ᵀ|A|)|B|`.
    bound_r: Vec<f64>,
    bound_c: Vec<f64>,
    gamma: f64,
}

impl Projection {
    pub fn new(a: &Matrix<f64>, b: &Matrix<f64>, seed: u64) -> Self {
        let (m, k, n) = (a.nrows(), a.ncols(), b.ncols());
        let (ar, br) = (a.as_ref(), b.as_ref());
        let mut rng = Rng::new(seed);
        let x: Vec<f64> = (0..n).map(|_| 0.5 + rng.unit()).collect();
        let y: Vec<f64> = (0..m).map(|_| 0.5 + rng.unit()).collect();

        let (mut bx, mut bx_abs) = (vec![0.0; k], vec![0.0; k]);
        for (j, &xj) in x.iter().enumerate() {
            for (p, &v) in br.col(j).iter().enumerate() {
                bx[p] += v * xj;
                bx_abs[p] += v.abs() * xj;
            }
        }
        let (mut abx, mut bound_r) = (vec![0.0; m], vec![0.0; m]);
        let (mut yta, mut yta_abs) = (vec![0.0; k], vec![0.0; k]);
        for p in 0..k {
            for (i, &v) in ar.col(p).iter().enumerate() {
                abx[i] += v * bx[p];
                bound_r[i] += v.abs() * bx_abs[p];
                yta[p] += y[i] * v;
                yta_abs[p] += y[i] * v.abs();
            }
        }
        let (mut ytab, mut bound_c) = (vec![0.0; n], vec![0.0; n]);
        for j in 0..n {
            for (p, &v) in br.col(j).iter().enumerate() {
                ytab[j] += yta[p] * v;
                bound_c[j] += yta_abs[p] * v.abs();
            }
        }
        Projection {
            x,
            y,
            abx,
            ytab,
            bound_r,
            bound_c,
            gamma: 16.0 * (m + n + k) as f64 * f64::EPSILON,
        }
    }

    pub fn check(&self, c: &MatRef<'_, f64>) -> Result<(), String> {
        let (m, n) = (self.y.len(), self.x.len());
        if c.nrows() != m || c.ncols() != n {
            return Err(format!(
                "result is {}x{}, expected {m}x{n}",
                c.nrows(),
                c.ncols()
            ));
        }
        let mut cx = vec![0.0; m];
        for j in 0..n {
            let col = c.col(j);
            let mut ytc = 0.0;
            for i in 0..m {
                cx[i] += col[i] * self.x[j];
                ytc += self.y[i] * col[i];
            }
            let err = (ytc - self.ytab[j]).abs();
            if err.is_nan() || err > self.gamma * self.bound_c[j] {
                return Err(format!("column {j} of the result is off by {err:e}"));
            }
        }
        for (i, (&got, &want)) in cx.iter().zip(&self.abx).enumerate() {
            let err = (got - want).abs();
            if err.is_nan() || err > self.gamma * self.bound_r[i] {
                return Err(format!("row {i} of the result is off by {err:e}"));
            }
        }
        Ok(())
    }
}

/// Every injected error must have been detected and corrected; a call
/// without injection must report no detection.
pub fn check_report(r: &FtReport) -> Result<(), String> {
    if r.injected == r.detected && r.detected == r.corrected {
        Ok(())
    } else {
        Err(format!(
            "injected {} but detected {} and corrected {}",
            r.injected, r.detected, r.corrected
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_accepts_the_product_and_counts_a_corrupted_one_as_failed() {
        let a = Matrix::<f64>::random(70, 45, 1);
        let b = Matrix::<f64>::random(45, 33, 2);
        let mut c = reference_gemm(&a, &b);
        let proj = Projection::new(&a, &b, 3);
        let mut tally = Tally::default();
        tally.record(proj.check(&c.as_ref()));
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        c.set(17, 29, c.get(17, 29) + 1e-6);
        tally.record(proj.check(&c.as_ref()));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.first_failure.is_some());
    }

    #[test]
    fn elementwise_compare_flags_one_wrong_element() {
        let a = Matrix::<f64>::random(20, 10, 4);
        let b = Matrix::<f64>::random(10, 12, 5);
        let expected = reference_gemm(&a, &b);
        let mut c = expected.clone();
        assert!(compare(&c, &expected).is_ok());
        c.set(3, 4, c.get(3, 4) * (1.0 + 1e-6) + 1e-6);
        assert!(compare(&c, &expected).is_err());
    }

    #[test]
    fn uncorrected_injection_fails_the_report_check() {
        let mut r = FtReport {
            injected: 2,
            detected: 2,
            corrected: 2,
            ..FtReport::default()
        };
        assert!(check_report(&r).is_ok());
        r.corrected = 1;
        assert!(check_report(&r).is_err());
    }
}
