//! Box-constrained quadratic programming.
//!
//! Minimizes `½ xᵀHx + gᵀx` subject to `lo ≤ x ≤ hi`, with `H` symmetric
//! positive semi-definite. Solved by projected gradient descent with a
//! Lipschitz step size estimated by power iteration — simple, allocation-
//! light, and deterministic, which is what both the MPC tracker and the EM
//! planner's speed smoother need.
//!
//! Two front ends share one projected-gradient loop. [`QpProblem`] takes
//! any dense `H`. [`SpeedQp`] is the planners' workspace for the
//! tridiagonal [`speed_tracking_qp`] Hessian: O(n) per iteration, its step
//! computed once, no allocation per solve, and bit-identical to the dense
//! solve of the same problem, which stays as its test oracle.

use std::fmt;

/// A box-constrained QP instance with dynamically-sized `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct QpProblem {
    n: usize,
    /// Row-major `n × n` Hessian.
    h: Vec<f64>,
    /// Linear term.
    g: Vec<f64>,
    /// Lower bounds.
    lo: Vec<f64>,
    /// Upper bounds.
    hi: Vec<f64>,
}

/// Errors constructing or solving a QP.
#[derive(Debug, Clone, PartialEq)]
pub enum QpError {
    /// Dimension mismatch between H, g and bounds.
    DimensionMismatch,
    /// `lo[i] ≤ hi[i]` fails: `lo[i] > hi[i]`, or either bound is NaN.
    InfeasibleBounds(usize),
    /// The Hessian has a negative curvature direction (not PSD).
    NotPsd,
}

impl fmt::Display for QpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimensionMismatch => write!(f, "QP dimensions do not match"),
            Self::InfeasibleBounds(i) => write!(f, "bounds are infeasible at index {i}"),
            Self::NotPsd => write!(f, "hessian is not positive semi-definite"),
        }
    }
}

impl std::error::Error for QpError {}

/// Result of a QP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct QpSolution {
    /// The minimizer (within the box).
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the projected-gradient fixed point was reached within
    /// tolerance.
    pub converged: bool,
}

/// Result of a [`SpeedQp::solve`]: a [`QpSolution`] without the
/// minimizer, which stays in the workspace ([`SpeedQp::x`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpStats {
    /// Objective value at the minimizer.
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the projected-gradient fixed point was reached within
    /// tolerance.
    pub converged: bool,
}

impl QpProblem {
    /// Builds a QP.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::DimensionMismatch`] if the array sizes disagree or
    /// [`QpError::InfeasibleBounds`] at the first `i` where
    /// `lo[i] ≤ hi[i]` fails, a NaN bound included.
    pub fn new(h: Vec<f64>, g: Vec<f64>, lo: Vec<f64>, hi: Vec<f64>) -> Result<Self, QpError> {
        let n = g.len();
        if h.len() != n * n || lo.len() != n || hi.len() != n {
            return Err(QpError::DimensionMismatch);
        }
        check_bounds(&lo, &hi)?;
        Ok(Self { n, h, g, lo, hi })
    }

    /// Number of variables.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Objective `½ xᵀHx + gᵀx`.
    #[must_use]
    pub fn objective(&self, x: &[f64]) -> f64 {
        let mut hx = vec![0.0; self.n];
        self.h_mul(x, &mut hx);
        objective(x, &hx, &self.g)
    }

    fn h_mul(&self, x: &[f64], out: &mut [f64]) {
        for (i, out_i) in out.iter_mut().enumerate() {
            let row = &self.h[i * self.n..(i + 1) * self.n];
            *out_i = dot(row, x);
        }
    }

    /// Solves by projected gradient descent.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::NotPsd`] if negative curvature is detected along
    /// the iterates (the objective diverges).
    pub fn solve(&self, max_iters: usize, tol: f64) -> Result<QpSolution, QpError> {
        let mul = |v: &[f64], out: &mut [f64]| self.h_mul(v, out);
        let step = 1.0 / (1.05 * lipschitz(self.n, mul));
        let mut it = Iterates::new(self.n);
        let stats = projected_gradient(
            mul, step, &self.g, &self.lo, &self.hi, &mut it, max_iters, tol,
        )?;
        Ok(QpSolution {
            x: it.x,
            objective: stats.objective,
            iterations: stats.iterations,
            converged: stats.converged,
        })
    }
}

/// A reusable solver for the [`speed_tracking_qp`] problem of fixed
/// `(n, w_v, w_a)`, as [`QpProblem::solve`] would solve it, bit for bit.
///
/// [`new`](Self::new) stores the three diagonals of the Hessian, filled
/// by the same `+=`/`-=` sequence as [`speed_tracking_qp`], and computes
/// the projected-gradient step once. [`solve`](Self::solve) allocates
/// nothing: it writes `g` and the iterates into buffers built with the
/// workspace.
///
/// Its mat-vec sums each row's band (at most three products) in dense
/// column order. That equals the dense row sum bit for bit whenever the
/// band sum is nonzero and finite and every input is finite. The dense
/// sum adds the same band products in the same order, plus a `±0`
/// product for every other column. Adding `±0` leaves a nonzero partial
/// sum unchanged, and adding a nonzero product to a zero partial sum of
/// either sign gives that product, so at every step the two partial sums
/// are equal or both zero. Only a zero row sum (its sign) or a NaN from
/// `0 · ∞` can differ, so in those cases the row falls back to all `n`
/// products, summed like the dense solver's row.
#[derive(Debug, Clone)]
pub struct SpeedQp {
    w_v: f64,
    h: Tridiagonal,
    /// Projected-gradient step `1 / (1.05 λ_max)`, fixed by `(n, w_v, w_a)`.
    step: f64,
    g: Vec<f64>,
    it: Iterates,
}

impl SpeedQp {
    /// Builds the workspace for `n` knots with speed-tracking weight `w_v`
    /// and smoothness weight `w_a`.
    #[must_use]
    pub fn new(n: usize, w_v: f64, w_a: f64) -> Self {
        let mut h = Tridiagonal {
            lower: vec![0.0; n.saturating_sub(1)],
            diag: vec![0.0; n],
            upper: vec![0.0; n.saturating_sub(1)],
        };
        for k in 0..n {
            h.diag[k] += 2.0 * w_v;
            if k + 1 < n {
                h.diag[k] += 2.0 * w_a;
                h.diag[k + 1] += 2.0 * w_a;
                h.upper[k] -= 2.0 * w_a;
                h.lower[k] -= 2.0 * w_a;
            }
        }
        let step = 1.0 / (1.05 * lipschitz(n, |v, out| h.mul(v, out)));
        Self {
            w_v,
            h,
            step,
            g: vec![0.0; n],
            it: Iterates::new(n),
        }
    }

    /// Solves for speed references `refs` within `lo ≤ x ≤ hi` by
    /// projected gradient descent, leaving the minimizer in
    /// [`x`](Self::x).
    ///
    /// # Errors
    ///
    /// Returns [`QpError::DimensionMismatch`] unless `refs`, `lo` and `hi`
    /// all have the workspace's `n` entries, [`QpError::InfeasibleBounds`]
    /// at the first `i` where `lo[i] ≤ hi[i]` fails (a NaN bound
    /// included), and [`QpError::NotPsd`] as [`QpProblem::solve`] does.
    pub fn solve(
        &mut self,
        refs: &[f64],
        lo: &[f64],
        hi: &[f64],
        max_iters: usize,
        tol: f64,
    ) -> Result<QpStats, QpError> {
        let n = self.g.len();
        if refs.len() != n || lo.len() != n || hi.len() != n {
            return Err(QpError::DimensionMismatch);
        }
        check_bounds(lo, hi)?;
        // `g[k] -= 2 w_v r_k` from 0.0, as `speed_tracking_qp` writes it
        // (a zero reference gives +0.0, not −0.0).
        for (g, r) in self.g.iter_mut().zip(refs) {
            *g = 0.0 - 2.0 * self.w_v * r;
        }
        let h = &self.h;
        projected_gradient(
            |v, out| h.mul(v, out),
            self.step,
            &self.g,
            lo,
            hi,
            &mut self.it,
            max_iters,
            tol,
        )
    }

    /// The minimizer from the last [`solve`](Self::solve); meaningful only
    /// when that call returned `Ok`.
    #[must_use]
    pub fn x(&self) -> &[f64] {
        &self.it.x
    }
}

/// The three diagonals of a speed-tracking Hessian: `lower[k] = H[k+1][k]`,
/// `diag[k] = H[k][k]`, `upper[k] = H[k][k+1]`; every other entry is +0.0.
#[derive(Debug, Clone)]
struct Tridiagonal {
    lower: Vec<f64>,
    diag: Vec<f64>,
    upper: Vec<f64>,
}

impl Tridiagonal {
    /// `out = H·v`, bit-identical to the dense product (see [`SpeedQp`]).
    fn mul(&self, v: &[f64], out: &mut [f64]) {
        let n = v.len();
        let finite = v.iter().all(|x| x.is_finite());
        for (i, out_i) in out.iter_mut().enumerate() {
            let mut band = -0.0;
            if i > 0 {
                band += self.lower[i - 1] * v[i - 1];
            }
            band += self.diag[i] * v[i];
            if i + 1 < n {
                band += self.upper[i] * v[i + 1];
            }
            *out_i = if finite && band != 0.0 && band.is_finite() {
                band
            } else {
                v.iter()
                    .enumerate()
                    .map(|(j, x)| self.entry(i, j) * x)
                    .sum()
            };
        }
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        if j + 1 == i {
            self.lower[j]
        } else if j == i {
            self.diag[i]
        } else if j == i + 1 {
            self.upper[i]
        } else {
            0.0
        }
    }
}

/// The projected-gradient buffers: the iterate `x` and `H·x`, and the
/// candidate and its `H·c`.
#[derive(Debug, Clone)]
struct Iterates {
    x: Vec<f64>,
    hx: Vec<f64>,
    cand: Vec<f64>,
    hc: Vec<f64>,
}

impl Iterates {
    fn new(n: usize) -> Self {
        Self {
            x: vec![0.0; n],
            hx: vec![0.0; n],
            cand: vec![0.0; n],
            hc: vec![0.0; n],
        }
    }
}

/// `Err(InfeasibleBounds(i))` at the first `i` where `lo[i] ≤ hi[i]`
/// fails. A NaN bound fails it too; `f64::clamp` would panic on one.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // the negation is what catches NaN
fn check_bounds(lo: &[f64], hi: &[f64]) -> Result<(), QpError> {
    match lo.iter().zip(hi).position(|(l, h)| !(l <= h)) {
        Some(i) => Err(QpError::InfeasibleBounds(i)),
        None => Ok(()),
    }
}

/// Largest eigenvalue estimate of the `n × n` operator `mul` (power
/// iteration). The start vector is deliberately asymmetric so it cannot
/// be orthogonal to the dominant eigenvector of structured (e.g. banded)
/// Hessians.
fn lipschitz(n: usize, mul: impl Fn(&[f64], &mut [f64])) -> f64 {
    let mut v: Vec<f64> = (0..n)
        .map(|i| 0.5 + ((i.wrapping_mul(2_654_435_761)) % 997) as f64 / 997.0)
        .collect();
    let mut hv = vec![0.0; n];
    let mut lambda = 1.0;
    for _ in 0..50 {
        mul(&v, &mut hv);
        let norm = dot(&hv, &hv).sqrt();
        if norm < 1e-12 {
            return 1.0;
        }
        lambda = norm / dot(&v, &v).sqrt().max(1e-300);
        for (v, hv) in v.iter_mut().zip(&hv) {
            *v = hv / norm;
        }
    }
    lambda.max(1e-9)
}

/// Projected gradient descent from the box-projected origin, where
/// `mul(v, out)` writes `H·v`. An accepted candidate's `H·c`, computed
/// for its objective, is the next gradient's `H·x`, so each iteration
/// runs one mat-vec; `x` holds the minimizer on return.
#[allow(clippy::too_many_arguments)]
fn projected_gradient(
    mul: impl Fn(&[f64], &mut [f64]),
    mut step: f64,
    g: &[f64],
    lo: &[f64],
    hi: &[f64],
    it: &mut Iterates,
    max_iters: usize,
    tol: f64,
) -> Result<QpStats, QpError> {
    let Iterates { x, hx, cand, hc } = it;
    for ((xi, l), h) in x.iter_mut().zip(lo).zip(hi) {
        *xi = 0.0f64.clamp(*l, *h);
    }
    mul(x, hx);
    let mut prev_obj = objective(x, hx, g);
    let mut iterations = 0;
    let mut converged = false;
    let mut backtracks = 0u32;
    for k in 0..max_iters {
        iterations = k + 1;
        for i in 0..g.len() {
            cand[i] = (x[i] - step * (hx[i] + g[i])).clamp(lo[i], hi[i]);
        }
        mul(cand, hc);
        let obj = objective(cand, hc, g);
        if obj > prev_obj + 1e-9 * (1.0 + prev_obj.abs()) {
            // Step too long (eigenvalue underestimated) — backtrack.
            step *= 0.5;
            backtracks += 1;
            if backtracks > 60 {
                return Err(QpError::NotPsd);
            }
            continue;
        }
        let max_move = cand
            .iter()
            .zip(x.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        std::mem::swap(x, cand);
        std::mem::swap(hx, hc);
        prev_obj = obj;
        if max_move < tol {
            converged = true;
            break;
        }
    }
    Ok(QpStats {
        objective: prev_obj,
        iterations,
        converged,
    })
}

/// `½ xᵀ(Hx) + gᵀx`.
fn objective(x: &[f64], hx: &[f64], g: &[f64]) -> f64 {
    0.5 * dot(x, hx) + dot(g, x)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Builds the banded Hessian and linear term for a speed-tracking problem:
/// minimize `Σ w_v (v_k − r_k)² + w_a Σ (v_{k+1} − v_k)²` — the canonical
/// form used by both planners' longitudinal smoothers. [`SpeedQp`] solves
/// the same problem without the dense matrix.
///
/// Returns `(h, g)` for [`QpProblem::new`].
///
/// # Panics
///
/// Panics if `refs` is empty.
#[must_use]
pub fn speed_tracking_qp(refs: &[f64], w_v: f64, w_a: f64) -> (Vec<f64>, Vec<f64>) {
    let n = refs.len();
    assert!(n > 0, "speed tracking needs at least one knot");
    let mut h = vec![0.0; n * n];
    let mut g = vec![0.0; n];
    for k in 0..n {
        h[k * n + k] += 2.0 * w_v;
        g[k] -= 2.0 * w_v * refs[k];
        if k + 1 < n {
            h[k * n + k] += 2.0 * w_a;
            h[(k + 1) * n + k + 1] += 2.0 * w_a;
            h[k * n + k + 1] -= 2.0 * w_a;
            h[(k + 1) * n + k] -= 2.0 * w_a;
        }
    }
    (h, g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_quadratic_minimum() {
        // min (x-3)²  →  H = 2, g = -6.
        let qp = QpProblem::new(vec![2.0], vec![-6.0], vec![-10.0], vec![10.0]).unwrap();
        let sol = qp.solve(1000, 1e-10).unwrap();
        assert!((sol.x[0] - 3.0).abs() < 1e-6);
        assert!(sol.converged);
    }

    #[test]
    fn active_box_constraint() {
        // min (x-3)² with x ≤ 1 → x* = 1.
        let qp = QpProblem::new(vec![2.0], vec![-6.0], vec![-10.0], vec![1.0]).unwrap();
        let sol = qp.solve(1000, 1e-10).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_dimensional_coupled() {
        // min x² + y² + (x−y−2)² — analytic minimum at (2/3, −2/3).
        // H = [[4, -2], [-2, 4]], g = [-4, 4].
        let qp = QpProblem::new(
            vec![4.0, -2.0, -2.0, 4.0],
            vec![-4.0, 4.0],
            vec![-10.0, -10.0],
            vec![10.0, 10.0],
        )
        .unwrap();
        let sol = qp.solve(5000, 1e-12).unwrap();
        assert!((sol.x[0] - 2.0 / 3.0).abs() < 1e-6, "x = {:?}", sol.x);
        assert!((sol.x[1] + 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_bounds_rejected() {
        let err = QpProblem::new(vec![2.0], vec![0.0], vec![1.0], vec![0.0]).unwrap_err();
        assert_eq!(err, QpError::InfeasibleBounds(0));
    }

    #[test]
    fn nan_bound_is_infeasible_not_a_panic() {
        let h = vec![2.0, 0.0, 0.0, 2.0];
        for (lo, hi) in [(f64::NAN, 1.0), (0.0, f64::NAN), (f64::NAN, f64::NAN)] {
            let err =
                QpProblem::new(h.clone(), vec![0.0; 2], vec![0.0, lo], vec![1.0, hi]).unwrap_err();
            assert_eq!(err, QpError::InfeasibleBounds(1));
        }
    }

    #[test]
    fn speed_qp_rejects_bad_bounds_and_stays_usable() {
        let mut qp = SpeedQp::new(3, 1.0, 2.0);
        let refs = [4.0; 3];
        let (lo, hi) = ([0.0; 3], [5.0; 3]);
        let nan_lo = [0.0, f64::NAN, 0.0];
        let nan_hi = [5.0, 5.0, f64::NAN];
        let crossed_lo = [0.0, 0.0, 6.0];
        assert_eq!(
            qp.solve(&refs, &nan_lo, &hi, 100, 1e-9),
            Err(QpError::InfeasibleBounds(1))
        );
        assert_eq!(
            qp.solve(&refs, &lo, &nan_hi, 100, 1e-9),
            Err(QpError::InfeasibleBounds(2))
        );
        assert_eq!(
            qp.solve(&refs, &crossed_lo, &hi, 100, 1e-9),
            Err(QpError::InfeasibleBounds(2))
        );
        assert_eq!(
            qp.solve(&refs[..2], &lo, &hi, 100, 1e-9),
            Err(QpError::DimensionMismatch)
        );
        let stats = qp.solve(&refs, &lo, &hi, 5000, 1e-12).unwrap();
        assert!(stats.converged);
        assert!(
            qp.x().iter().all(|v| (v - 4.0).abs() < 1e-9),
            "{:?}",
            qp.x()
        );
    }

    #[test]
    fn band_mat_vec_matches_the_dense_rows_bit_for_bit() {
        let n = 5;
        let (h, _) = speed_tracking_qp(&[1.0; 5], 1.0, 2.0);
        let dense = QpProblem::new(h, vec![0.0; n], vec![0.0; n], vec![0.0; n]).unwrap();
        let band = SpeedQp::new(n, 1.0, 2.0);
        let inf = f64::INFINITY;
        for v in [
            [1.0, 2.0, 3.0, 4.0, 5.0],
            // Row 2's band products are all −0.0, the dense row's others +0.0.
            [0.0, 0.0, -0.0, 0.0, 0.0],
            [-0.0; 5],
            // 0 · ∞ is NaN in the dense rows outside the infinite knot's band.
            [1.0, 2.0, 3.0, inf, 5.0],
            [f64::NAN, 2.0, 3.0, 4.0, 5.0],
        ] {
            let (mut want, mut got) = ([0.0; 5], [0.0; 5]);
            dense.h_mul(&v, &mut want);
            band.h.mul(&v, &mut got);
            assert_eq!(want.map(f64::to_bits), got.map(f64::to_bits), "v = {v:?}");
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let err = QpProblem::new(vec![2.0, 0.0], vec![0.0], vec![0.0], vec![1.0]).unwrap_err();
        assert_eq!(err, QpError::DimensionMismatch);
    }

    #[test]
    fn speed_tracking_follows_reference() {
        let refs = vec![5.6; 20];
        let (h, g) = speed_tracking_qp(&refs, 1.0, 0.5);
        let qp = QpProblem::new(h, g, vec![0.0; 20], vec![8.9; 20]).unwrap();
        let sol = qp.solve(5000, 1e-10).unwrap();
        for v in &sol.x {
            assert!((v - 5.6).abs() < 1e-4, "speed {v}");
        }
    }

    #[test]
    fn speed_tracking_smooths_step_reference() {
        // Reference steps from 6 to 0 at knot 10; smoothing spreads it.
        let mut refs = vec![6.0; 10];
        refs.extend(vec![0.0; 10]);
        let (h, g) = speed_tracking_qp(&refs, 1.0, 10.0);
        let qp = QpProblem::new(h, g, vec![0.0; 20], vec![8.9; 20]).unwrap();
        let sol = qp.solve(20_000, 1e-10).unwrap();
        // Smoothness: max adjacent delta much smaller than the 6 m/s step.
        let max_delta = sol
            .x
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0f64, f64::max);
        assert!(max_delta < 1.5, "max delta {max_delta}");
        // Still ends near the low reference.
        assert!(sol.x[19] < 2.5, "end speed {}", sol.x[19]);
    }

    #[test]
    fn objective_decreases_monotonically_by_contract() {
        // The solver errors on divergence; a valid PSD problem solves.
        let (h, g) = speed_tracking_qp(&[3.0, 4.0, 5.0], 1.0, 1.0);
        let qp = QpProblem::new(h, g, vec![0.0; 3], vec![10.0; 3]).unwrap();
        assert!(qp.solve(1000, 1e-9).is_ok());
    }
}
