//! Cover-free set families and the Linial color-reduction step.
//!
//! Procedure Arb-Linial-Coloring (§7.2, following Linial \[19\] and Lemma
//! 3.21 of \[4\]) needs, for a current palette of `p` colors and an
//! out-degree bound `A`, a collection `𝒥` of `p` subsets of a small ground
//! set such that **no set is covered by the union of any `A` others**. A
//! vertex colored `x` whose parents are colored `y₁..y_A` can then pick an
//! element of `F_x ∖ (F_{y₁} ∪ … ∪ F_{y_A})` as its new color — distinct
//! from whatever each parent picks from its own set.
//!
//! We use the explicit polynomial construction: with `q` prime and degree
//! bound `d`, the set of the color `x` is `F_x = {(i, f_x(i)) : i ∈ F_q}`
//! where `f_x` is the polynomial whose coefficients are the base-`q` digits
//! of `x`. Distinct polynomials agree on ≤ `d` points, so `|F_x ∩ F_y| ≤ d`
//! and `q > A·d` guarantees the cover-free property. The ground set has
//! `q²` elements — `O(A² log² p / log² A)`, within a `log p / log A` factor
//! of Linial's probabilistic bound, with identical fixpoint behaviour:
//! iterating the reduction reaches `O(A²)` colors in `O(log* p)` steps.
//!
//! [`CoverFree::reduce`] never builds a set. An element `i·q + f_x(i)` of
//! `F_x` has first coordinate `i` and second coordinate `f_x(i) < q`, so it
//! lies in `F_y` iff `f_y(i) = f_x(i)`. The step therefore scans the points
//! `i = 0, 1, …` and returns `i·q + f_x(i)` at the first `i` where no parent's
//! polynomial agrees with `x`'s — the same element a walk of `F_x` against
//! the materialized union would return. Each parent agrees with `x` on ≤ `d`
//! points, so the scan stops by point `|parents|·d`: at most
//! `|parents|·d + 1` points, each costing `O((|parents| + 1)·d)` field
//! operations, and no allocation. In a typical step point 0 is already
//! free.

/// Smallest prime ≥ `x` (trial division; fine for the ≤ 10⁷ range used).
pub fn next_prime(x: u64) -> u64 {
    let mut c = x.max(2);
    loop {
        if is_prime(c) {
            return c;
        }
        c += 1;
    }
}

/// Deterministic primality by trial division.
pub fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    if x.is_multiple_of(2) {
        return x == 2;
    }
    let mut d = 3u64;
    while d.saturating_mul(d) <= x {
        if x.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// Parameters of one polynomial cover-free family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoverFree {
    /// Field size (prime), also the size of every set `F_x`.
    pub q: u64,
    /// Polynomial degree bound; `|F_x ∩ F_y| ≤ d` for `x ≠ y`.
    pub d: u64,
    /// The union bound the family is built for: `q > a_bound · d`.
    pub a_bound: u64,
}

impl CoverFree {
    /// Builds a family able to distinguish `p_colors` distinct current
    /// colors against unions of up to `a_bound` other sets.
    pub fn for_palette(p_colors: u64, a_bound: u64) -> Self {
        let a = a_bound.max(1);
        let p = p_colors.max(2);
        // Need q^(d+1) ≥ p and q > a·d. Try growing d; for each d the
        // minimal q is max(next_prime(a·d + 1), ⌈p^(1/(d+1))⌉ rounded up to
        // prime); pick the d minimizing the ground set q².
        let mut best: Option<CoverFree> = None;
        for d in 1..=64u64 {
            let root = integer_root_ceil(p, (d + 1) as u32);
            let q = next_prime(root.max(a * d + 1));
            // q^(d+1) ≥ p holds by construction of root.
            let cand = CoverFree { q, d, a_bound: a };
            if best.is_none_or(|b| cand.ground_size() < b.ground_size()) {
                best = Some(cand);
            }
            // Once q is driven purely by a·d, increasing d only hurts.
            if root <= a * d + 1 {
                break;
            }
        }
        best.expect("at least one candidate")
    }

    /// Size of the ground set: new colors come from `0..q²`.
    pub fn ground_size(&self) -> u64 {
        self.q * self.q
    }

    /// The set `F_x` as an iterator of ground-set elements `i·q + f_x(i)`.
    pub fn set_of(&self, x: u64) -> impl Iterator<Item = u64> + '_ {
        let coeffs = self.coefficients(x);
        (0..self.q).map(move |i| {
            let mut acc = 0u64;
            // Horner in F_q; q² < 2^63 for our sizes so no overflow.
            for &c in coeffs.iter().rev() {
                acc = (acc * i + c) % self.q;
            }
            i * self.q + acc
        })
    }

    /// Base-`q` digits of `x`, lowest first, padded to `d+1` coefficients.
    fn coefficients(&self, x: u64) -> Vec<u64> {
        let mut v = Vec::with_capacity(self.d as usize + 1);
        let mut x = x;
        for _ in 0..=self.d {
            v.push(x % self.q);
            x /= self.q;
        }
        debug_assert_eq!(x, 0, "color exceeds q^(d+1); family too small");
        v
    }

    /// `f_x(i)`: the polynomial whose coefficients are the `d + 1` lowest
    /// base-`q` digits of `x` (lowest first, truncated as in
    /// [`CoverFree::set_of`]), evaluated at `i` in `F_q`. Summing
    /// `c_k·i^k` low digit first gives the same residue as Horner's rule;
    /// `q² < 2^63` for our sizes, so no product overflows.
    fn eval(&self, x: u64, i: u64) -> u64 {
        let (mut rest, mut acc, mut pow) = (x, 0u64, 1u64);
        for _ in 0..=self.d {
            acc = (acc + rest % self.q * pow) % self.q;
            pow = pow * i % self.q;
            rest /= self.q;
        }
        debug_assert_eq!(rest, 0, "color exceeds q^(d+1); family too small");
        acc
    }

    /// The Linial step: returns an element of `F_mine` not contained in
    /// any `F_y` for `y ∈ others`. Panics if `others` exceeds the union
    /// bound (caller violated the out-degree invariant) or if the colors
    /// collide with `mine` (caller's current coloring was improper).
    ///
    /// First-free-point search: returns `i·q + f_mine(i)` for the first
    /// point `i` at which `f_y(i) ≠ f_mine(i)` for every parent `y`, which
    /// is exactly the first element of [`CoverFree::set_of`]`(mine)`
    /// outside the union of the parents' sets (see the module docs). The
    /// scan visits at most `|others|·d + 1` points, each in
    /// `O((|others| + 1)·d)` field operations, and allocates nothing.
    pub fn reduce(&self, mine: u64, others: &[u64]) -> u64 {
        assert!(
            others.len() as u64 <= self.a_bound,
            "{} parents exceed cover-free bound {}",
            others.len(),
            self.a_bound
        );
        for &y in others {
            debug_assert_ne!(y, mine, "parent shares current color {mine}");
        }
        (0..self.q)
            .find_map(|i| {
                let fi = self.eval(mine, i);
                others
                    .iter()
                    .all(|&y| self.eval(y, i) != fi)
                    .then_some(i * self.q + fi)
            })
            .expect("cover-free property guarantees an uncovered element")
    }
}

/// `⌈p^(1/k)⌉` by floating point with integer correction.
fn integer_root_ceil(p: u64, k: u32) -> u64 {
    if p <= 1 {
        return 1;
    }
    let mut r = (p as f64).powf(1.0 / k as f64).ceil() as u64;
    // Correct downward/upward around FP error.
    while r > 1 && pow_at_least(r - 1, k, p) {
        r -= 1;
    }
    while !pow_at_least(r, k, p) {
        r += 1;
    }
    r
}

/// Whether `base^k ≥ p`, saturating.
fn pow_at_least(base: u64, k: u32, p: u64) -> bool {
    let mut acc: u64 = 1;
    for _ in 0..k {
        acc = acc.saturating_mul(base);
        if acc >= p {
            return true;
        }
    }
    acc >= p
}

/// The deterministic palette-size sequence of iterated Linial reduction:
/// starting from `p0` colors with union bound `a_bound`, repeatedly apply
/// [`CoverFree::for_palette`] until the palette stops shrinking. Returns
/// the per-step families (empty if `p0` is already at the fixpoint).
///
/// Every vertex computes this same schedule from the globally known
/// `(p0, a_bound)`, so all vertices agree on the number of reduction
/// rounds — the paper's "`O(log* n)` steps".
pub fn reduction_schedule(p0: u64, a_bound: u64) -> Vec<CoverFree> {
    let mut steps = Vec::new();
    let mut p = p0.max(2);
    loop {
        let fam = CoverFree::for_palette(p, a_bound);
        if fam.ground_size() >= p {
            break;
        }
        p = fam.ground_size();
        steps.push(fam);
        assert!(steps.len() <= 64, "reduction schedule failed to converge");
    }
    steps
}

/// Final palette size after the full reduction schedule.
pub fn fixpoint_palette(p0: u64, a_bound: u64) -> u64 {
    reduction_schedule(p0, a_bound)
        .last()
        .map(|f| f.ground_size())
        .unwrap_or(p0.max(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The set definition of the Linial step, kept as the oracle for
    /// [`CoverFree::reduce`]: the first element of `F_mine`, in
    /// [`CoverFree::set_of`] order, outside the sorted union of the
    /// parents' sets.
    fn reduce_by_union(f: &CoverFree, mine: u64, others: &[u64]) -> u64 {
        let mut blocked: Vec<u64> = others.iter().flat_map(|&y| f.set_of(y)).collect();
        blocked.sort_unstable();
        f.set_of(mine)
            .find(|e| blocked.binary_search(e).is_err())
            .expect("cover-free property guarantees an uncovered element")
    }

    // `reduce` returns the oracle's element on random families and
    // parents. About half the parents are forced to agree with `mine` at
    // point 0 (same lowest base-`q` digit), so many cases scan past the
    // first point.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn reduce_matches_union_definition(
            (p, a, mine, draws) in (2u64..=1 << 40, 1u64..=20).prop_flat_map(|(p, a)| {
                let parents = proptest::collection::vec((0..p, any::<bool>()), 0..a as usize + 1);
                (Just(p), Just(a), 0..p, parents)
            })
        ) {
            let f = CoverFree::for_palette(p, a);
            let parents: Vec<u64> = draws
                .iter()
                .map(|&(y, share)| if share { y - y % f.q + mine % f.q } else { y })
                .filter(|&y| y != mine)
                .collect();
            prop_assert_eq!(
                f.reduce(mine, &parents),
                reduce_by_union(&f, mine, &parents),
                "p={} a={} mine={} parents={:?}", p, a, mine, parents
            );
        }
    }

    /// The scan's worst case: `a_bound` parents whose polynomials each
    /// agree with `mine`'s on `d` distinct points, together covering
    /// points `0..a_bound·d`, so the first free point is `a_bound·d`.
    /// Parent `j`'s polynomial is `f_mine + ∏(x − r)` over
    /// `r ∈ j·d..(j+1)·d`: the added monic product vanishes exactly there.
    #[test]
    fn reduce_worst_case_reaches_point_a_times_d() {
        // Families (q, d) = (37, 3), (17, 2), (23, 6) and (29, 2).
        for (p, a) in [(1u64 << 20, 8u64), (1369, 8), (1 << 30, 3), (10_000, 12)] {
            let f = CoverFree::for_palette(p, a);
            let (q, d) = (f.q, f.d);
            let mine = p - 1;
            let mut rest = mine;
            let mine_digits: Vec<u64> = (0..=d)
                .map(|_| {
                    let c = rest % q;
                    rest /= q;
                    c
                })
                .collect();
            let parents: Vec<u64> = (0..a)
                .map(|j| {
                    // Coefficients of ∏(x − r), lowest first; r < a·d < q.
                    let mut g = vec![1u64];
                    for r in j * d..(j + 1) * d {
                        let mut next = vec![0u64; g.len() + 1];
                        for (k, &c) in g.iter().enumerate() {
                            next[k + 1] = (next[k + 1] + c) % q;
                            next[k] = (next[k] + (q - r) * c) % q;
                        }
                        g = next;
                    }
                    mine_digits
                        .iter()
                        .zip(&g)
                        .rev()
                        .fold(0, |y, (&m, &c)| y * q + (m + c) % q)
                })
                .collect();
            let c = f.reduce(mine, &parents);
            assert_eq!(c / q, a * d, "p={p} a={a} (q={q}, d={d})");
            assert_eq!(c, reduce_by_union(&f, mine, &parents));
        }
    }

    #[test]
    fn primes() {
        assert!(is_prime(2) && is_prime(3) && is_prime(97));
        assert!(!is_prime(1) && !is_prime(91));
        assert_eq!(next_prime(90), 97);
        assert_eq!(next_prime(2), 2);
    }

    #[test]
    fn integer_root() {
        assert_eq!(integer_root_ceil(1000, 3), 10);
        assert_eq!(integer_root_ceil(1001, 3), 11);
        assert_eq!(integer_root_ceil(1, 5), 1);
        assert_eq!(integer_root_ceil(u64::MAX / 2, 1), u64::MAX / 2);
    }

    #[test]
    fn family_parameters_sound() {
        let f = CoverFree::for_palette(1_000_000, 6);
        assert!(f.q > f.a_bound * f.d);
        assert!(pow_at_least(f.q, f.d as u32 + 1, 1_000_000));
        // Each set has q elements inside 0..q².
        let s: Vec<u64> = f.set_of(999_999).collect();
        assert_eq!(s.len(), f.q as usize);
        assert!(s.iter().all(|&e| e < f.ground_size()));
    }

    #[test]
    fn sets_intersect_in_at_most_d() {
        let f = CoverFree::for_palette(10_000, 4);
        let a: std::collections::HashSet<u64> = f.set_of(123).collect();
        for y in [0u64, 1, 999, 9_999] {
            if y == 123 {
                continue;
            }
            let inter = f.set_of(y).filter(|e| a.contains(e)).count() as u64;
            assert!(
                inter <= f.d,
                "colors 123,{y} intersect in {inter} > d={}",
                f.d
            );
        }
    }

    #[test]
    fn reduce_avoids_all_parents() {
        let f = CoverFree::for_palette(100_000, 5);
        let parents = [17u64, 99_999, 4242, 7, 31_337];
        let c = f.reduce(55_555, &parents);
        assert!(c < f.ground_size());
        // c must differ from every parent's possible choices: verify c is
        // outside each parent's set.
        for &p in &parents {
            assert!(!f.set_of(p).any(|e| e == c));
        }
        // And c is in my own set.
        assert!(f.set_of(55_555).any(|e| e == c));
    }

    #[test]
    fn reduce_distinct_for_adjacent_pair() {
        // Simulate one synchronous step on an edge (u parent of v):
        // v avoids F_u, u picks inside F_u — results differ.
        let f = CoverFree::for_palette(1 << 20, 3);
        let cu = f.reduce(1000, &[2000, 3000]);
        let cv = f.reduce(4000, &[1000]);
        assert_ne!(cu, cv);
    }

    #[test]
    fn schedule_converges_to_a_squared_scale() {
        for a in [2u64, 4, 16] {
            let steps = reduction_schedule(1 << 40, a);
            assert!(!steps.is_empty());
            assert!(steps.len() <= 10, "too many steps: {}", steps.len());
            let fin = fixpoint_palette(1 << 40, a);
            // Fixpoint is O(a²) with a modest constant.
            assert!(
                fin <= 200 * (a + 1) * (a + 1),
                "fixpoint {fin} too large for a={a}"
            );
            // Palette shrinks monotonically along the schedule.
            let mut prev = 1u64 << 40;
            for f in &steps {
                assert!(f.ground_size() < prev);
                prev = f.ground_size();
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed cover-free bound")]
    fn reduce_rejects_too_many_parents() {
        let f = CoverFree::for_palette(100, 2);
        f.reduce(1, &[2, 3, 4]);
    }

    #[test]
    fn schedule_steps_scale_like_log_star() {
        let s_small = reduction_schedule(1 << 8, 2).len();
        let s_big = reduction_schedule(1 << 60, 2).len();
        assert!(s_big >= s_small);
        assert!(
            s_big - s_small <= 3,
            "growth {s_small}->{s_big} not log*-like"
        );
    }
}
