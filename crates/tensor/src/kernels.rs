//! Raw `f32` compute kernels shared by the autograd ops and the
//! no-autograd batched-inference path.
//!
//! No kernel reorders what it accumulates into an element: each output
//! element receives its terms in the order of the naive reference loop
//! it replaces, as separate multiply-then-add operations (rustc does not
//! contract them into fused multiply-adds), so results are bitwise
//! identical to those loops. The autovectorizer finds the SIMD.
//!
//! - [`matmul`] accumulates in register strips: each strip of an output
//!   row sums that row's nonzero terms in registers and is stored once
//!   per `b` panel. Its body is compiled twice on `x86_64`: for the
//!   baseline target and for AVX2, which it picks at run time when the
//!   CPU has it, so the binaries still run on any x86-64 host. Both
//!   builds compute the same bits: the wider registers give every output
//!   element the same multiply-then-add operations in the same order,
//!   `avx2` does not enable FMA, and rustc never contracts a multiply
//!   and an add into one.
//! - The elementwise kernels are explicit fixed-width lane loops
//!   ([`LANES`] elements per iteration with a scalar tail).
//!
//! The random-shape sweeps in `ops.rs` and `autograd.rs` pin the matmul
//! and the two matmul gradients built on it; this module's own tests pin
//! both builds of the matmul (strip widths, panels and zero skip), the
//! elementwise kernels and their scalar tails.

/// Lane width of the elementwise kernels' unrolled loops. Eight `f32`
/// lanes fill one AVX2 register and two SSE2 or NEON registers; narrower
/// hardware just executes the lanes in pairs. [`matmul`] does not use it:
/// its register strips are 32, 8 or 1 columns wide.
pub const LANES: usize = 8;

/// `out = a (m, k) @ b (k, n)`, overwriting `out` (`m * n`).
///
/// Register-strip kernel: `b` is processed in horizontal panels of `KC`
/// rows so a panel stays cache-resident while every row of `a` streams
/// over it. Within a panel, each row of `a` first lists its nonzero
/// terms `(p, a[i][p])` in ascending `p`, without a branch. Then each
/// strip of columns of the output row starts its accumulators at `+0.0`
/// in the first panel, or loads them from `out` in later panels,
/// adds `a[i][p] · b[p][j]` term by term in registers and is stored
/// once. Each output element so accumulates its partial products in
/// ascending-`p` order from `+0.0`, and the result is bitwise identical
/// to the textbook triple loop whose accumulator starts at `+0.0`.
///
/// Zero entries of `a` are skipped (adjacency, mask and relu-masked
/// gradient matrices are mostly zeros). That is exact whenever `b` is
/// finite: the skipped term `±0 · b[p][j]` is a zero, and adding a zero
/// leaves the accumulator unchanged unless the accumulator is `-0.0`. It
/// never is: it starts at `+0.0`, `+0 + -0` is `+0`, and a sum of two
/// floats is `-0.0` only when both are. (A non-finite `b` would turn the
/// skipped term into NaN.)
///
/// On an `x86_64` CPU with AVX2 this runs an AVX2 build of the same body
/// (see the module doc for why its bits are the same).
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `matmul_avx2` needs AVX2, which the CPU was just found to have.
        return unsafe { matmul_avx2(a, b, out, m, k, n) };
    }
    matmul_body(a, b, out, m, k, n);
}

/// [`matmul_body`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_avx2(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_body(a, b, out, m, k, n);
}

/// The body of [`matmul`], inlined into each of its builds: into
/// [`matmul`] itself for the baseline target, into `matmul_avx2` for AVX2.
#[inline(always)]
fn matmul_body(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if k == 0 || n == 0 {
        out.fill(0.0);
        return;
    }
    const KC: usize = 64;
    let mut offsets = [0usize; KC];
    let mut coefs = [0.0f32; KC];
    for pk in (0..k).step_by(KC) {
        let pend = (pk + KC).min(k);
        for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            let mut len = 0;
            for (p, &av) in (pk..pend).zip(&arow[pk..pend]) {
                offsets[len] = p * n;
                coefs[len] = av;
                len += usize::from(av != 0.0);
            }
            let terms = Terms { offsets: &offsets[..len], coefs: &coefs[..len], first: pk == 0 };
            match n {
                32.. => strips::<32>(orow, b, &terms),
                8.. => strips::<8>(orow, b, &terms),
                _ => strips::<1>(orow, b, &terms),
            }
        }
    }
}

/// One row of `a`'s nonzero terms within one panel of `b`, in ascending
/// `p`: `b[p]` starts at `offsets[t]` and is scaled by `coefs[t]`.
struct Terms<'a> {
    offsets: &'a [usize],
    coefs: &'a [f32],
    /// Whether this is the first panel, whose sums start at `+0.0`.
    first: bool,
}

/// Adds `terms` to the output row `orow` in strips of `W` columns. 32
/// lanes are eight SSE2 or four AVX2 registers, which the term loop holds
/// throughout.
/// When `W` does not divide the row, its last strip is shifted left to
/// end at the row's end. That strip's first lanes belong to the strip
/// before it, which already added this panel's terms to them: it neither
/// loads nor stores them, so they start at zero and are dropped.
#[inline(always)]
fn strips<const W: usize>(orow: &mut [f32], b: &[f32], terms: &Terms) {
    let n = orow.len();
    let whole = n - n % W;
    for start in (0..whole).step_by(W) {
        let out = &mut orow[start..start + W];
        let mut acc = [0.0f32; W];
        if !terms.first {
            acc.copy_from_slice(out);
        }
        out.copy_from_slice(&strip(acc, b, start, terms));
    }
    if whole < n {
        let start = n - W;
        let shared = whole - start;
        let mut acc = [0.0f32; W];
        if !terms.first {
            acc[shared..].copy_from_slice(&orow[whole..]);
        }
        orow[whole..].copy_from_slice(&strip(acc, b, start, terms)[shared..]);
    }
}

/// `acc[l] += coefs[t] · b[p][start + l]` over the terms in order.
#[inline(always)]
fn strip<const W: usize>(mut acc: [f32; W], b: &[f32], start: usize, terms: &Terms) -> [f32; W] {
    for (&offset, &av) in terms.offsets.iter().zip(terms.coefs) {
        let row = &b[offset + start..offset + start + W];
        for l in 0..W {
            acc[l] += av * row[l];
        }
    }
    acc
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

    /// The textbook triple loop, each accumulator starting at `+0.0`;
    /// with `skip_zeros`, a zero `a[i][p]` adds nothing.
    fn reference(
        a: &[f32],
        b: &[f32],
        (m, k, n): (usize, usize, usize),
        skip_zeros: bool,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    let av = a[i * k + p];
                    if !(skip_zeros && av == 0.0) {
                        out[i * n + j] += av * b[p * n + j];
                    }
                }
            }
        }
        out
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    type Matmul = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

    /// The dispatched [`matmul`] and the generic body it falls back to.
    /// On an AVX2 host `matmul` runs the AVX2 build, so only the second
    /// entry runs the code that a host without AVX2 runs.
    const KERNELS: [(&str, Matmul); 2] = [("matmul", matmul), ("matmul_body", matmul_body)];

    #[test]
    fn matmul_matches_textbook_reference() {
        // Every strip width (32, 8 and 1 column), with and without a
        // shifted last strip, over one, two and more than two `KC` panels.
        // Row 0 of `a` is all `+0.0`, row 1 all `-0.0`, and the zeros of
        // the other rows alternate in sign.
        for n in [0, 1, 5, 7, 8, 17, 31, 32, 33, 92, 94, 128] {
            for k in [0, 1, 7, 64, 65, 128, 129, 200] {
                let m = 5;
                let mut a = seeded((n * 1000 + k) as u64, m * k);
                a[..k].fill(0.0);
                a[k..2 * k].fill(-0.0);
                for (x, e) in a[2 * k..].iter_mut().enumerate() {
                    if *e == 0.0 && x % 2 == 1 {
                        *e = -0.0;
                    }
                }
                let b = seeded(11 + n as u64, k * n);
                let expect = reference(&a, &b, (m, k, n), false);
                for (name, kernel) in KERNELS {
                    let mut out = vec![f32::NAN; m * n];
                    kernel(&a, &b, &mut out, m, k, n);
                    let shape = format!("({m},{k})x({k},{n})");
                    assert_eq!(bits(&out), bits(&expect), "{name}: shape {shape}");
                }
            }
        }
    }

    #[test]
    fn matmul_skips_non_finite_b_facing_a_zero() {
        // Every fourth row of `b` is infinite or NaN, and every fourth
        // column of `a`, which multiplies it, holds `±0.0`. The textbook
        // loop turns those terms into NaN; the kernel skips them.
        let (m, k, n) = (3, 70, 40);
        let mut a = seeded(5, m * k);
        let mut b = seeded(6, k * n);
        for p in (0..k).step_by(4) {
            for i in 0..m {
                a[i * k + p] = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
            for (j, e) in b[p * n..(p + 1) * n].iter_mut().enumerate() {
                *e = if j % 2 == 0 { f32::INFINITY } else { f32::NAN };
            }
        }
        let expect = reference(&a, &b, (m, k, n), true);
        for (name, kernel) in KERNELS {
            let mut out = vec![f32::NAN; m * n];
            kernel(&a, &b, &mut out, m, k, n);
            assert!(out.iter().all(|v| v.is_finite()), "{name}");
            assert_eq!(bits(&out), bits(&expect), "{name}");
        }
        assert!(reference(&a, &b, (m, k, n), false).iter().all(|v| v.is_nan()));
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
