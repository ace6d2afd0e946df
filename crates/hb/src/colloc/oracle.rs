//! The textbook spectral derivative [`crate::Colloc::apply_diff`] must
//! reproduce bit for bit.
//!
//! One output sample at a time, one term at a time: each entry starts at
//! `+0.0` and adds `D[s][s']·vals[s'][i]` in ascending `s'`, skipping
//! the terms whose coefficient is zero. Self-contained (no imports) so
//! tests outside this crate can include the same file.

/// `out[s][i] = Σ_{s'} D[s][s']·vals[s'][i]` over the row-major
/// `n0 × n0` matrix `d` and the sample-major `n0 × n` arrays `vals` and
/// `out`.
pub fn apply_diff(d: &[f64], n0: usize, n: usize, vals: &[f64], out: &mut [f64]) {
    assert_eq!(d.len(), n0 * n0, "oracle: square row-major D");
    assert_eq!(vals.len(), n0 * n, "oracle: vals length");
    assert_eq!(out.len(), n0 * n, "oracle: out length");
    for s in 0..n0 {
        let orow = &mut out[s * n..(s + 1) * n];
        orow.iter_mut().for_each(|v| *v = 0.0);
        for sp in 0..n0 {
            let dv = d[s * n0 + sp];
            if dv == 0.0 {
                continue;
            }
            let vrow = &vals[sp * n..(sp + 1) * n];
            for (o, v) in orow.iter_mut().zip(vrow.iter()) {
                *o += dv * v;
            }
        }
    }
}
