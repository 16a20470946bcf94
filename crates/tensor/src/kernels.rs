//! Raw `f32` compute kernels shared by the autograd ops and the
//! no-autograd batched-inference path.
//!
//! Every hot loop is written as an explicit fixed-width lane loop
//! ([`LANES`] elements per iteration with a scalar tail) so the
//! autovectorizer can turn the body into SIMD without any unsafe code or
//! target-feature detection. The lane split never changes *what* is
//! accumulated into an element or in which order — each output element
//! still receives its partial products ascending in `p`, as separate
//! multiply-then-add operations (rustc does not contract them into fused
//! multiply-adds) — so results are bitwise identical to the naive
//! reference loops they replace. The random-shape sweeps in `ops.rs` and
//! `autograd.rs` pin that equivalence for the matmul and for the two
//! matmul gradients built on it; this module's own tests pin the
//! elementwise kernels and the scalar tails.

/// Lane width of the explicitly unrolled inner loops. Eight `f32` lanes
/// fill one AVX2 register and two NEON registers; narrower hardware just
/// executes the lanes in pairs.
pub const LANES: usize = 8;

/// `out[j] += a * b[j]` over one row (the matmul inner loop).
#[inline]
pub fn axpy(out: &mut [f32], b: &[f32], a: f32) {
    debug_assert_eq!(out.len(), b.len());
    let mut oc = out.chunks_exact_mut(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (o, bv) in oc.by_ref().zip(bc.by_ref()) {
        for l in 0..LANES {
            o[l] += a * bv[l];
        }
    }
    for (o, &bv) in oc.into_remainder().iter_mut().zip(bc.remainder()) {
        *o += a * bv;
    }
}

/// `out = a (m, k) @ b (k, n)`, overwriting `out` (`m * n`).
///
/// Panel-blocked i/p/j kernel: `b` is processed in horizontal panels of
/// `KC` rows so a panel stays cache-resident while every row of `a`
/// streams over it. Each output element accumulates its partial products
/// in ascending-`p` order, so the result is bitwise identical to the
/// textbook triple loop whose accumulator starts at `+0.0`.
///
/// Zero entries of `a` are skipped (adjacency, mask and relu-masked
/// gradient matrices are mostly zeros). That is exact whenever `b` is
/// finite: the skipped term `±0 · b[p][j]` is a zero, and adding a zero
/// leaves the accumulator unchanged unless the accumulator is `-0.0`. It
/// never is: it starts at `+0.0`, `+0 + -0` is `+0`, and a sum of two
/// floats is `-0.0` only when both are. (A non-finite `b` would turn the
/// skipped term into NaN.)
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    const KC: usize = 64;
    for pk in (0..k).step_by(KC) {
        let pend = (pk + KC).min(k);
        for i in 0..m {
            let arow = &a[i * k + pk..i * k + pend];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &av) in (pk..pend).zip(arow) {
                if av == 0.0 {
                    continue;
                }
                axpy(orow, &b[p * n..(p + 1) * n], av);
            }
        }
    }
}

/// The `(cols, rows)` transpose of the row-major `(rows, cols)` matrix
/// `x`: with it, the matmul gradients `g · bᵀ` and `aᵀ · g` are
/// [`matmul`] calls.
pub(crate) fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(x.len(), rows * cols);
    let mut out = vec![0.0f32; rows * cols];
    for (i, row) in x.chunks_exact(cols).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            out[j * rows + i] = v;
        }
    }
    out
}

/// `x[i] = max(x[i], 0)` in place.
#[inline]
pub fn relu_in_place(x: &mut [f32]) {
    let mut c = x.chunks_exact_mut(LANES);
    for ch in c.by_ref() {
        for e in ch.iter_mut() {
            *e = e.max(0.0);
        }
    }
    for e in c.into_remainder() {
        *e = e.max(0.0);
    }
}

/// `x[i] *= factor` in place.
#[inline]
pub fn scale_in_place(x: &mut [f32], factor: f32) {
    let mut c = x.chunks_exact_mut(LANES);
    for ch in c.by_ref() {
        for e in ch.iter_mut() {
            *e *= factor;
        }
    }
    for e in c.into_remainder() {
        *e *= factor;
    }
}

/// `out[i] += x[i]` (the row accumulator behind [`mean_rows`]).
#[inline]
pub fn acc_in_place(out: &mut [f32], x: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    let mut oc = out.chunks_exact_mut(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (o, xv) in oc.by_ref().zip(xc.by_ref()) {
        for l in 0..LANES {
            o[l] += xv[l];
        }
    }
    for (o, &xv) in oc.into_remainder().iter_mut().zip(xc.remainder()) {
        *o += xv;
    }
}

/// Runs `work(first, chunk)` over `out` cut into at most `threads`
/// contiguous chunks of whole `unit`-element units, where `first` is the
/// index of the chunk's first unit: the first chunk on the calling thread,
/// every other chunk on a scoped thread of its own. This is the one way
/// the block ops of [`Tensor`](crate::Tensor) use threads. When every
/// unit is computed as it would be alone, the result does not depend on
/// `threads`. A panic on any thread panics the caller once every thread
/// has stopped.
///
/// # Panics
///
/// Panics when `unit` is zero or does not divide `out.len()`, or when
/// `work` panics.
pub fn split_units<T: Send>(
    threads: usize,
    out: &mut [T],
    unit: usize,
    work: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(
        unit > 0 && out.len().is_multiple_of(unit),
        "split_units: {unit} does not divide {}",
        out.len()
    );
    let units = out.len() / unit;
    let per = units.div_ceil(threads.clamp(1, units.max(1))).max(1);
    let chunks = out.chunks_mut(per * unit).enumerate().collect();
    on_threads(chunks, |(i, chunk)| work(i * per, chunk));
}

/// [`matmul`] of `a (m, k)` and `b (k, n)` into `out (m, n)`, the rows of
/// `out` split over `threads` threads ([`split_units`]). A row of the
/// product depends on its own row of `a` alone, so the result is
/// [`matmul`]'s, bit for bit, on any thread count.
pub(crate) fn matmul_split(
    threads: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
) {
    split_units(threads, out, n, |first, rows| {
        let m = rows.len() / n;
        matmul(&a[first * k..(first + m) * k], b, rows, m, k, n);
    });
}

/// Runs `f` on every item: the first on the calling thread, every other
/// on a scoped thread of its own. A panic on any thread panics the caller
/// once every thread has stopped.
pub(crate) fn on_threads<T: Send>(items: Vec<T>, f: impl Fn(T) + Sync) {
    if items.len() < 2 {
        items.into_iter().for_each(f);
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        let mut items = items.into_iter();
        let first = items.next();
        for item in items {
            scope.spawn(move || f(item));
        }
        if let Some(item) = first {
            f(item);
        }
    });
}

/// Column-wise mean over rows: `x (m, n) -> out (n)`, overwriting `out`.
/// Accumulates rows in ascending order then divides by `m` — the exact
/// operation order of `Tensor::mean_rows`.
pub fn mean_rows(x: &[f32], m: usize, n: usize, out: &mut [f32]) {
    debug_assert_eq!(x.len(), m * n);
    debug_assert_eq!(out.len(), n);
    out.fill(0.0);
    for i in 0..m {
        acc_in_place(out, &x[i * n..(i + 1) * n]);
    }
    for o in out.iter_mut() {
        *o /= m as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(seed: u64, len: usize) -> Vec<f32> {
        // Small xorshift so the kernel tests need no dev-dependency.
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if s.is_multiple_of(5) {
                    0.0
                } else {
                    ((s % 1000) as f32 - 500.0) / 250.0
                }
            })
            .collect()
    }

    #[test]
    fn axpy_matches_scalar_on_tails() {
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100] {
            let b = seeded(len as u64 + 1, len);
            let mut out = seeded(len as u64 + 2, len);
            let mut expect = out.clone();
            for (o, &bv) in expect.iter_mut().zip(&b) {
                *o += 1.25 * bv;
            }
            axpy(&mut out, &b, 1.25);
            assert_eq!(out, expect, "len {len}");
        }
    }

    #[test]
    fn matmul_matches_textbook_reference() {
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (4, 64, 4), (2, 130, 3), (9, 65, 17)] {
            let a = seeded(7, m * k);
            let b = seeded(11, k * n);
            let mut out = vec![f32::NAN; m * n];
            matmul(&a, &b, &mut out, m, k, n);
            let mut expect = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    for p in 0..k {
                        expect[i * n + j] += a[i * k + p] * b[p * n + j];
                    }
                }
            }
            assert_eq!(out, expect, "shape ({m},{k})x({k},{n})");
        }
    }

    #[test]
    fn elementwise_kernels_match_iterators() {
        for len in [0usize, 1, 7, 8, 9, 31, 33] {
            let x = seeded(len as u64 + 3, len);

            let mut relu = x.clone();
            relu_in_place(&mut relu);
            let expect: Vec<f32> = x.iter().map(|&v| v.max(0.0)).collect();
            assert_eq!(relu, expect, "relu len {len}");

            let mut scaled = x.clone();
            scale_in_place(&mut scaled, -0.75);
            let expect: Vec<f32> = x.iter().map(|&v| v * -0.75).collect();
            assert_eq!(scaled, expect, "scale len {len}");

            let y = seeded(len as u64 + 4, len);
            let mut acc = x.clone();
            acc_in_place(&mut acc, &y);
            let expect: Vec<f32> = x.iter().zip(&y).map(|(&a, &b)| a + b).collect();
            assert_eq!(acc, expect, "acc len {len}");
        }
    }

    #[test]
    fn mean_rows_matches_accumulate_then_divide() {
        let (m, n) = (5, 11);
        let x = seeded(9, m * n);
        let mut out = vec![f32::NAN; n];
        mean_rows(&x, m, n, &mut out);
        let mut expect = vec![0.0f32; n];
        for i in 0..m {
            for (j, e) in expect.iter_mut().enumerate() {
                *e += x[i * n + j];
            }
        }
        for e in &mut expect {
            *e /= m as f32;
        }
        assert_eq!(out, expect);
    }
}
