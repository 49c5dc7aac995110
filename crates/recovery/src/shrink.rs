//! Thresholding primitives shared by the solvers.

/// Soft-thresholding (the proximal operator of `t‖·‖₁`):
/// `sign(v) · max(|v| − t, 0)`, applied in place.
///
/// # Examples
///
/// ```
/// use tepics_recovery::shrink::soft_threshold;
///
/// let mut v = vec![3.0, -0.5, 1.0];
/// soft_threshold(&mut v, 1.0);
/// assert_eq!(v, vec![2.0, 0.0, 0.0]);
/// ```
pub fn soft_threshold(v: &mut [f64], t: f64) {
    // A NaN threshold passes and zeroes `v`; the solver's finiteness
    // check on the final residual reports it.
    debug_assert!(t >= 0.0 || t.is_nan());
    for x in v {
        let mag = x.abs() - t;
        *x = if mag > 0.0 { x.signum() * mag } else { 0.0 };
    }
}

/// Keeps only the `k` largest-magnitude entries, zeroing the rest
/// (the projection onto the ℓ0 ball), in place. `order` is scratch for
/// the index partition (cleared first), so a warm buffer makes the
/// projection allocation-free.
// tidy:alloc-free
pub fn hard_threshold_top_k(v: &mut [f64], k: usize, order: &mut Vec<usize>) {
    if k >= v.len() {
        return;
    }
    if k == 0 {
        v.fill(0.0);
        return;
    }
    order.clear();
    order.extend(0..v.len());
    order.select_nth_unstable_by(k - 1, |&a, &b| v[b].abs().total_cmp(&v[a].abs()));
    // order[k..] now holds the indices of the smaller magnitudes.
    for &i in &order[k..] {
        v[i] = 0.0;
    }
}

/// Indices of the `k` largest-magnitude entries (unsorted), into a
/// caller-owned buffer (cleared first), so a warm buffer makes the
/// selection allocation-free.
pub fn top_k_indices_into(v: &[f64], k: usize, out: &mut Vec<usize>) {
    let k = k.min(v.len());
    out.clear();
    out.extend(0..v.len());
    if k < v.len() && k > 0 {
        out.select_nth_unstable_by(k - 1, |&a, &b| v[b].abs().total_cmp(&v[a].abs()));
    }
    out.truncate(k);
}

/// Indices of all nonzero entries, into a caller-owned buffer (cleared
/// first), so a warm buffer makes the scan allocation-free.
pub fn support_into(v: &[f64], out: &mut Vec<usize>) {
    out.clear();
    out.extend(
        v.iter()
            .enumerate()
            .filter_map(|(i, &x)| (x != 0.0).then_some(i)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_threshold_shrinks_toward_zero() {
        let mut v = vec![2.0, -2.0, 0.3, -0.3, 0.0];
        soft_threshold(&mut v, 0.5);
        assert_eq!(v, vec![1.5, -1.5, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn soft_threshold_zero_is_identity() {
        let mut v = vec![1.0, -2.0];
        soft_threshold(&mut v, 0.0);
        assert_eq!(v, vec![1.0, -2.0]);
    }

    #[test]
    fn hard_threshold_keeps_k_largest() {
        let mut v = vec![0.1, -5.0, 3.0, 0.2, -4.0];
        hard_threshold_top_k(&mut v, 2, &mut Vec::new());
        assert_eq!(v, vec![0.0, -5.0, 0.0, 0.0, -4.0]);
    }

    #[test]
    fn hard_threshold_edge_cases() {
        let mut v = vec![1.0, 2.0];
        hard_threshold_top_k(&mut v, 5, &mut Vec::new());
        assert_eq!(v, vec![1.0, 2.0]);
        hard_threshold_top_k(&mut v, 0, &mut Vec::new());
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn top_k_indices_match_hard_threshold() {
        let v = vec![0.1, -5.0, 3.0, 0.2, -4.0];
        let mut idx = vec![7];
        top_k_indices_into(&v, 3, &mut idx);
        idx.sort_unstable();
        assert_eq!(idx, vec![1, 2, 4]);
    }

    #[test]
    fn support_finds_nonzeros() {
        let mut out = vec![7];
        support_into(&[0.0, 1.0, 0.0, -2.0], &mut out);
        assert_eq!(out, vec![1, 3]);
        support_into(&[0.0; 4], &mut out);
        assert!(out.is_empty());
    }
}
